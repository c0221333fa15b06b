"""PageRank by the power method (Table II: PR, edge-oriented, 10 iterations).

Classic synchronous PageRank: every iteration every vertex gathers the
rank mass of its in-neighbours, so the frontier is always dense and the
engine's decision procedure streams the partitioned COO layout — the
workload that showcases the paper's locality gains (Figures 5c, 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._types import VAL_DTYPE
from ..core.engine import Engine
from ..core.ops import EdgeOperator, scatter_add_gather
from ..core.stats import RunStats
from ..frontier.frontier import Frontier

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..resilience.checkpoint import CheckpointSession

__all__ = ["pagerank", "PageRankResult", "PageRankOp"]


class PageRankOp(EdgeOperator):
    """Accumulate ``rank[u] / outdeg(u)`` into each destination."""

    combine = "add"

    def __init__(self, contrib: np.ndarray, accum: np.ndarray) -> None:
        #: per-vertex contribution ``rank[u] / outdeg(u)``, precomputed.
        self.contrib = contrib
        self.accum = accum

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        scatter_add_gather(self.accum, dst, self.contrib, src)
        return dst  # the helper took nothing but vertex-id arrays


@dataclass(frozen=True)
class PageRankResult:
    """Rank vector (sums to ~1), iterations run, final delta, statistics."""

    ranks: np.ndarray
    iterations: int
    last_delta: float
    stats: RunStats


def pagerank(
    engine: Engine,
    *,
    damping: float = 0.85,
    iterations: int = 10,
    tolerance: float = 0.0,
    handle_dangling: bool = True,
    checkpoint: CheckpointSession | None = None,
) -> PageRankResult:
    """Power-method PageRank over the engine's graph.

    ``iterations`` defaults to the paper's 10 rounds; set ``tolerance`` > 0
    to stop early once the L1 rank change drops below it.
    ``handle_dangling`` redistributes the rank of zero-out-degree vertices
    uniformly (matching networkx); disable to mirror implementations that
    simply leak dangling mass.
    """
    n = engine.num_vertices
    out_deg = engine.store.out_degrees.astype(VAL_DTYPE)
    safe_deg = np.where(out_deg > 0, out_deg, 1.0)
    dangling = out_deg == 0
    ranks = np.full(n, 1.0 / n, dtype=VAL_DTYPE)
    engine.reset_stats()
    frontier = Frontier.full(n)
    it = 0
    delta = float("inf")
    if checkpoint is not None:
        # The last L1 delta rides along as a 1-element array, so a resumed
        # run reports the same convergence metadata as an uninterrupted one.
        it, saved = checkpoint.restore()
        if saved is not None:
            ranks[...] = saved["ranks"]
            delta = float(saved["last_delta"][0])
    converged_on_resume = it > 0 and tolerance > 0.0 and delta < tolerance
    # One operator for the whole run, its arrays updated in place each
    # iteration (np.divide writes the same values ``ranks / safe_deg``
    # would produce; ``fill(0.0)`` equals a fresh zeros).
    op = PageRankOp(np.empty(n, dtype=VAL_DTYPE), np.zeros(n, dtype=VAL_DTYPE))
    if not converged_on_resume:
        for it in range(it + 1, iterations + 1):
            np.divide(ranks, safe_deg, out=op.contrib)
            op.accum.fill(0.0)
            engine.edge_map(frontier, op)
            accum = op.accum
            dangling_mass = float(ranks[dangling].sum()) if handle_dangling else 0.0
            new_ranks = (1.0 - damping) / n + damping * (accum + dangling_mass / n)
            delta = float(np.abs(new_ranks - ranks).sum())
            ranks[...] = new_ranks
            if checkpoint is not None:
                checkpoint.save(
                    it, {"ranks": ranks, "last_delta": np.array([delta], dtype=VAL_DTYPE)}
                )
            if tolerance > 0.0 and delta < tolerance:
                break
    return PageRankResult(
        ranks=ranks, iterations=it, last_delta=delta, stats=engine.reset_stats()
    )
