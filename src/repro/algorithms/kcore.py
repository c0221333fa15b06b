"""k-core decomposition by iterative peeling (Ligra app-suite parity).

Not part of the paper's Table II, but shipped by every framework the
paper compares against; included for library completeness.  The peeling
loop is frontier-driven: each round removes vertices whose residual
degree fell below ``k``, propagating degree decrements along their
out-edges through ``edge_map`` — another sparse-to-medium workload for
Algorithm 2.

Expects a symmetric graph (cores are defined on undirected graphs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import VID_DTYPE
from ..core.engine import Engine
from ..core.ops import EdgeOperator
from ..core.stats import RunStats
from ..frontier.frontier import Frontier

__all__ = ["kcore", "KCoreResult", "PeelOp"]


class PeelOp(EdgeOperator):
    """Decrement residual degrees of the peeled vertices' neighbours."""

    combine = "add"

    def __init__(self, residual: np.ndarray, alive: np.ndarray) -> None:
        self.residual = residual
        self.alive = alive

    def cond(self, dst_ids: np.ndarray) -> np.ndarray:
        return self.alive[dst_ids]

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        dst = dst[self.alive[dst]]
        np.add.at(self.residual, dst, -1)
        return dst


@dataclass(frozen=True)
class KCoreResult:
    """Core number per vertex plus peeling statistics."""

    coreness: np.ndarray
    max_core: int
    rounds: int
    stats: RunStats

    def core_members(self, k: int) -> np.ndarray:
        """Vertices whose core number is at least ``k``."""
        return np.flatnonzero(self.coreness >= k)


def kcore(engine: Engine, *, max_k: int | None = None) -> KCoreResult:
    """Full core decomposition of the engine's (symmetric) graph.

    Peels k = 1, 2, ... until no vertex survives (or ``max_k``), assigning
    each vertex the largest k at which it is still present.
    """
    n = engine.num_vertices
    residual = engine.store.out_degrees.astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)
    engine.reset_stats()
    rounds = 0
    k = 0
    cap = max_k if max_k is not None else n
    while alive.any() and k < cap:
        k += 1
        coreness[alive] = k - 1 if k > 1 else 0
        # Repeatedly peel vertices with residual degree < k.
        while True:
            peel_ids = np.flatnonzero(alive & (residual < k)).astype(VID_DTYPE)
            if peel_ids.size == 0:
                break
            alive[peel_ids] = False
            coreness[peel_ids] = k - 1
            frontier = Frontier(n, sparse=peel_ids)
            engine.edge_map(frontier, PeelOp(residual, alive))
            rounds += 1
        coreness[alive] = k
    return KCoreResult(
        coreness=coreness,
        max_core=int(coreness.max()) if n else 0,
        rounds=rounds,
        stats=engine.reset_stats(),
    )
