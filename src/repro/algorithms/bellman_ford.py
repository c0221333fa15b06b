"""Bellman-Ford single-source shortest paths (Table II: BF, vertex-oriented).

Frontier-driven relaxation: a vertex is active whenever its distance
improved last round; its out-edges are relaxed with synthetic positive
weights.  Converges in at most |V| - 1 rounds on graphs without negative
cycles (weights here are always positive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._types import VAL_DTYPE, VID_DTYPE
from ..core.engine import Engine
from ..core.ops import EdgeOperator
from ..core.stats import RunStats
from ..errors import ConvergenceError
from ..frontier.frontier import Frontier
from ..graph.weights import WeightFn

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..resilience.checkpoint import CheckpointSession

__all__ = ["bellman_ford", "BellmanFordResult", "BellmanFordOp"]


class BellmanFordOp(EdgeOperator):
    """Relax ``dist[v] = min(dist[v], dist[u] + w(u, v))``."""

    combine = "min"

    def __init__(self, dist: np.ndarray, weight_fn: WeightFn) -> None:
        self.dist = dist
        self.weight_fn = weight_fn

    def process_edges(self, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> np.ndarray:
        if src.size == 0:
            return np.empty(0, dtype=VID_DTYPE)
        candidate = self.dist[src] + w
        before = self.dist[dst]
        np.minimum.at(self.dist, dst, candidate)
        return dst[self.dist[dst] < before]


@dataclass(frozen=True)
class BellmanFordResult:
    """Distances (inf when unreached), rounds executed, statistics."""

    source: int
    dist: np.ndarray
    rounds: int
    stats: RunStats

    def reached(self) -> np.ndarray:
        """Boolean mask of vertices reachable from the source."""
        return np.isfinite(self.dist)


def bellman_ford(
    engine: Engine,
    source: int,
    *,
    weight_fn: WeightFn | None = None,
    checkpoint: CheckpointSession | None = None,
) -> BellmanFordResult:
    """Shortest-path distances from ``source`` under synthetic edge weights."""
    n = engine.num_vertices
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")
    weight_fn = weight_fn or WeightFn()
    dist = np.full(n, np.inf, dtype=VAL_DTYPE)
    dist[source] = 0.0
    op = BellmanFordOp(dist, weight_fn)
    frontier = Frontier.of(n, source)
    engine.reset_stats()
    rounds = 0
    if checkpoint is not None:
        rounds, saved = checkpoint.restore()
        if saved is not None:
            dist[...] = saved["dist"]
            frontier = Frontier(n, sparse=saved["frontier"].astype(VID_DTYPE))
    while not frontier.is_empty:
        frontier = engine.edge_map(frontier, op)
        rounds += 1
        if rounds > n:
            raise ConvergenceError(
                "Bellman-Ford exceeded |V| rounds; negative cycle in weights?"
            )
        if checkpoint is not None:
            checkpoint.save(rounds, {"dist": dist, "frontier": frontier.as_sparse()})
    return BellmanFordResult(
        source=source, dist=dist, rounds=rounds, stats=engine.reset_stats()
    )
