"""PageRankDelta (Table II: PRDelta, edge-oriented, forward).

The optimised PageRank variant of Ligra: instead of pushing full ranks
every round, vertices forward only the *change* (delta) of their rank, and
a vertex stays active only while its delta is significant.  Frontier
density therefore decays over the run — the paper reports 8 dense, 3
medium-dense and 22 sparse rounds on Twitter — which makes PRDelta the
showcase for the three-way traversal decision (it is the paper's headline
speedup, 4.34x over Ligra on Yahoo_mem).

The recurrence mirrors the power method exactly when no vertex is
deactivated: ``delta_0 = (1-d)/n`` on all vertices, ``p += delta`` each
round, ``delta_{t+1}[v] = d * sum_{u->v} delta_t[u]/outdeg(u)``, so ``p``
converges to the (dangling-mass-leaking) PageRank vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._types import VAL_DTYPE, VID_DTYPE
from ..core.engine import Engine
from ..core.ops import EdgeOperator, scatter_add_gather
from ..core.stats import RunStats
from ..frontier.frontier import Frontier

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..resilience.checkpoint import CheckpointSession

__all__ = ["pagerank_delta", "PageRankDeltaResult", "PRDeltaOp"]


class PRDeltaOp(EdgeOperator):
    """Accumulate ``delta[u] / outdeg(u)`` into each destination."""

    combine = "add"
    #: one live instance per run, arrays mutated in place between phases
    #: (see :class:`~repro.algorithms.pagerank.PageRankOp`).
    persistent_state = True

    def __init__(self, scaled_delta: np.ndarray, accum: np.ndarray) -> None:
        self.scaled_delta = scaled_delta
        self.accum = accum

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        scatter_add_gather(self.accum, dst, self.scaled_delta, src)
        return dst  # the helper took nothing but vertex-id arrays


@dataclass(frozen=True)
class PageRankDeltaResult:
    """Converged rank estimate, rounds executed, and statistics (whose
    per-round density classes reproduce the paper's PRDelta breakdown)."""

    ranks: np.ndarray
    iterations: int
    stats: RunStats


def pagerank_delta(
    engine: Engine,
    *,
    damping: float = 0.85,
    epsilon: float = 1e-7,
    max_iterations: int = 100,
    checkpoint: CheckpointSession | None = None,
) -> PageRankDeltaResult:
    """Delta-forwarding PageRank over the engine's graph.

    A vertex is active next round while ``|delta| > epsilon * p`` (Ligra's
    activation rule).  The run ends when the frontier empties or after
    ``max_iterations`` rounds.
    """
    n = engine.num_vertices
    out_deg = engine.store.out_degrees.astype(VAL_DTYPE)
    safe_deg = np.where(out_deg > 0, out_deg, 1.0)
    p = np.zeros(n, dtype=VAL_DTYPE)
    delta = np.full(n, (1.0 - damping) / n, dtype=VAL_DTYPE)
    p += delta
    frontier = Frontier.full(n)
    engine.reset_stats()
    rounds = 0
    if checkpoint is not None:
        rounds, saved = checkpoint.restore()
        if saved is not None:
            p[...] = saved["p"]
            delta = saved["delta"].astype(VAL_DTYPE)
            frontier = Frontier(n, sparse=saved["frontier"].astype(VID_DTYPE))
    # One operator per run, updated in place each round (np.divide and
    # fill(0.0) write bit-identical values to the fresh arrays the loop
    # used to build), so an adopting process backend republishes nothing.
    op = PRDeltaOp(np.empty(n, dtype=VAL_DTYPE), np.zeros(n, dtype=VAL_DTYPE))
    while not frontier.is_empty and rounds < max_iterations:
        np.divide(delta, safe_deg, out=op.scaled_delta)
        op.accum.fill(0.0)
        received = engine.edge_map(frontier, op)
        rounds += 1
        delta = damping * op.accum
        p += delta
        if received.is_empty:
            break
        ids = received.as_sparse()
        significant = np.abs(delta[ids]) > epsilon * np.maximum(p[ids], 1e-300)
        frontier = Frontier(n, sparse=ids[significant])
        if checkpoint is not None:
            checkpoint.save(rounds, {"p": p, "delta": delta, "frontier": frontier.as_sparse()})
    return PageRankDeltaResult(ranks=p, iterations=rounds, stats=engine.reset_stats())
