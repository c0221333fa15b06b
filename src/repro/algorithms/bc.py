"""Betweenness centrality, Brandes' algorithm (Table II: BC, vertex-oriented).

Single-source dependency accumulation as in Ligra's BC application:

1. a forward frontier sweep computes shortest-path counts ``sigma`` level
   by level;
2. a backward sweep over the *transposed* graph accumulates dependencies
   ``dep[u] += sigma[u]/sigma[v] * (1 + dep[v])`` for tree edges
   ``u -> v`` (``level[v] == level[u] + 1``).

Summing the single-source dependencies over all sources yields the
classic unnormalised betweenness score (verified against networkx in the
test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import VAL_DTYPE
from ..core.engine import Engine
from ..core.ops import EdgeOperator
from ..core.stats import RunStats
from ..frontier.frontier import Frontier

__all__ = ["betweenness", "BCResult", "SigmaOp", "DependencyOp"]


class SigmaOp(EdgeOperator):
    """Forward phase: accumulate path counts into unvisited destinations."""

    writes = ("sigma",)

    def __init__(self, sigma: np.ndarray, visited: np.ndarray) -> None:
        self.sigma = sigma
        self.visited = visited

    def cond(self, dst_ids: np.ndarray) -> np.ndarray:
        return ~self.visited[dst_ids]

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        mask = ~self.visited[dst]
        src, dst = src[mask], dst[mask]
        np.add.at(self.sigma, dst, self.sigma[src])
        return dst


class DependencyOp(EdgeOperator):
    """Backward phase over the transpose: push dependency to BFS parents.

    Receives transpose edges ``(v, u)`` with ``v`` one level deeper than
    ``u``; only tree edges (``level[u] == level[v] - 1``) contribute.
    """

    writes = ("dep",)

    def __init__(self, sigma: np.ndarray, dep: np.ndarray, level: np.ndarray) -> None:
        self.sigma = sigma
        self.dep = dep
        self.level = level

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        mask = self.level[dst] == self.level[src] - 1
        v, u = src[mask], dst[mask]
        contribution = self.sigma[u] / self.sigma[v] * (1.0 + self.dep[v])
        np.add.at(self.dep, u, contribution)
        return u


@dataclass(frozen=True)
class BCResult:
    """Single-source dependency scores ``dep`` plus BFS metadata."""

    source: int
    dep: np.ndarray
    sigma: np.ndarray
    level: np.ndarray
    rounds: int
    forward_stats: RunStats
    backward_stats: RunStats


def betweenness(
    engine: Engine,
    source: int,
    *,
    transposed_engine: Engine | None = None,
) -> BCResult:
    """Brandes single-source dependencies from ``source``.

    ``transposed_engine`` (an engine over the reversed graph) can be passed
    to amortise the transpose across many sources; it is built on demand
    otherwise.
    """
    n = engine.num_vertices
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")
    sigma = np.zeros(n, dtype=VAL_DTYPE)
    visited = np.zeros(n, dtype=bool)
    level = np.full(n, -1, dtype=np.int64)
    sigma[source] = 1.0
    visited[source] = True
    level[source] = 0

    frontiers: list[Frontier] = [Frontier.of(n, source)]
    op = SigmaOp(sigma, visited)
    engine.reset_stats()
    while True:
        nxt = engine.edge_map(frontiers[-1], op)
        if nxt.is_empty:
            break
        ids = nxt.as_sparse()
        visited[ids] = True
        level[ids] = len(frontiers)
        frontiers.append(nxt)
    forward_stats = engine.reset_stats()

    if transposed_engine is None:
        from ..layout.store import GraphStore  # local import to avoid cycle

        tstore = engine.store.transposed()
        transposed_engine = Engine(tstore, engine.options)
    dep = np.zeros(n, dtype=VAL_DTYPE)
    dep_op = DependencyOp(sigma, dep, level)
    transposed_engine.reset_stats()
    # Deepest level first: dependencies flow one level up per edge_map.
    for depth in range(len(frontiers) - 1, 0, -1):
        transposed_engine.edge_map(frontiers[depth], dep_op)
    backward_stats = transposed_engine.reset_stats()
    # Brandes excludes the source from its own dependency score.
    dep[source] = 0.0
    return BCResult(
        source=source,
        dep=dep,
        sigma=sigma,
        level=level,
        rounds=len(frontiers),
        forward_stats=forward_stats,
        backward_stats=backward_stats,
    )
