"""Maximal independent set, Luby-style (Ligra app-suite parity).

Frontier-driven rounds over a symmetric graph: every undecided vertex
holds a deterministic priority; a vertex joins the set when it beats all
undecided neighbours, and its neighbours drop out.  Terminates in
O(log n) expected rounds on bounded-degree graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import VID_DTYPE
from ..core.engine import Engine
from ..core.ops import EdgeOperator
from ..core.stats import RunStats
from ..frontier.frontier import Frontier
from ..graph.weights import edge_weights

__all__ = ["maximal_independent_set", "MISResult", "MaxPriorityOp", "KnockOp"]

UNDECIDED, IN_SET, OUT = 0, 1, 2


class MaxPriorityOp(EdgeOperator):
    """Record, per vertex, the best priority among undecided neighbours."""

    combine = "max"

    def __init__(self, priority: np.ndarray, best: np.ndarray, state: np.ndarray) -> None:
        self.priority = priority
        self.best = best
        self.state = state

    def cond(self, dst_ids: np.ndarray) -> np.ndarray:
        return self.state[dst_ids] == UNDECIDED

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        # Self-loops are ignored (an MIS is defined on simple graphs;
        # comparing a vertex against its own priority would deadlock it).
        live = (self.state[dst] == UNDECIDED) & (src != dst)
        src, dst = src[live], dst[live]
        np.maximum.at(self.best, dst, self.priority[src])
        return dst


class KnockOp(EdgeOperator):
    """Knock the winners' undecided neighbours out of contention.

    The destination-indexed constant store is idempotent, so duplicate
    destinations and partition order are both harmless.  State lives in
    instance attributes (not closure variables) so the effect pass can
    see — and certify — every write.
    """

    combine = "or"

    def __init__(self, state: np.ndarray, out_mask: np.ndarray) -> None:
        self.state = state
        self.out_mask = out_mask

    def cond(self, dst_ids: np.ndarray) -> np.ndarray:
        return self.state[dst_ids] == UNDECIDED

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        live = (self.state[dst] == UNDECIDED) & (src != dst)
        self.out_mask[dst[live]] = True
        return dst[live]


@dataclass(frozen=True)
class MISResult:
    """Membership mask, rounds, statistics."""

    in_set: np.ndarray
    rounds: int
    stats: RunStats


def maximal_independent_set(engine: Engine, *, seed: int = 0) -> MISResult:
    """Compute an MIS of the engine's (symmetric) graph."""
    n = engine.num_vertices
    ids = np.arange(n, dtype=np.int64)
    priority = edge_weights(ids, ids + 1, low=0.0, high=1.0, seed=seed)
    state = np.zeros(n, dtype=np.int8)
    engine.reset_stats()
    rounds = 0
    while True:
        undecided = np.flatnonzero(state == UNDECIDED).astype(VID_DTYPE)
        if undecided.size == 0:
            break
        rounds += 1
        best = np.full(n, -1.0)
        frontier = Frontier(n, sparse=undecided)
        engine.edge_map(frontier, MaxPriorityOp(priority, best, state))
        winners = undecided[priority[undecided] > best[undecided]]
        state[winners] = IN_SET
        # Knock out the winners' undecided neighbours.
        knock = Frontier(n, sparse=winners)
        out_mask = np.zeros(n, dtype=bool)
        engine.edge_map(knock, KnockOp(state, out_mask))
        state[out_mask] = OUT
    return MISResult(in_set=state == IN_SET, rounds=rounds, stats=engine.reset_stats())
