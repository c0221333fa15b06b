"""Graph radii estimation via multi-source BFS (Ligra app-suite parity).

Estimates per-vertex eccentricities with the multi-BFS bitfield trick:
up to 64 sources run simultaneously, each owning one bit of a per-vertex
``uint64`` word; a vertex's estimated eccentricity is the last round at
which it acquired a new source bit.  Several batches from random sources
tighten the estimate (a lower bound on the true eccentricity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import VID_DTYPE
from ..core.engine import Engine
from ..core.ops import EdgeOperator
from ..core.stats import RunStats
from ..frontier.frontier import Frontier

__all__ = ["estimate_radii", "RadiiResult", "BitOrOp"]


class BitOrOp(EdgeOperator):
    """OR source bitmasks into destinations; activate changed ones."""

    combine = "or"

    def __init__(self, bits: np.ndarray, nxt: np.ndarray) -> None:
        self.bits = bits
        self.nxt = nxt

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        if src.size == 0:
            return np.empty(0, dtype=VID_DTYPE)
        np.bitwise_or.at(self.nxt, dst, self.bits[src])
        return dst[(self.nxt[dst] | self.bits[dst]) != self.bits[dst]]


@dataclass(frozen=True)
class RadiiResult:
    """Estimated eccentricity per vertex plus run metadata."""

    eccentricity: np.ndarray
    radius: int
    diameter: int
    rounds: int
    stats: RunStats


def estimate_radii(
    engine: Engine,
    *,
    num_batches: int = 2,
    sources_per_batch: int = 64,
    seed: int = 0,
) -> RadiiResult:
    """Estimate eccentricities of the engine's graph.

    Estimates are lower bounds; vertices never reached by any sampled
    source keep eccentricity 0.  ``radius``/``diameter`` are the min/max
    over vertices reached in every batch.
    """
    n = engine.num_vertices
    rng = np.random.default_rng(seed)
    ecc = np.zeros(n, dtype=np.int64)
    engine.reset_stats()
    rounds = 0
    for _ in range(num_batches):
        k = min(sources_per_batch, n)
        sources = rng.choice(n, size=k, replace=False).astype(VID_DTYPE)
        bits = np.zeros(n, dtype=np.uint64)
        bits[sources] |= np.uint64(1) << np.arange(k, dtype=np.uint64)
        frontier = Frontier(n, sparse=sources)
        level = 0
        while not frontier.is_empty:
            level += 1
            rounds += 1
            nxt_bits = np.zeros(n, dtype=np.uint64)
            frontier = engine.edge_map(frontier, BitOrOp(bits, nxt_bits))
            if frontier.is_empty:
                break
            ids = frontier.as_sparse()
            bits[ids] |= nxt_bits[ids]
            ecc[ids] = np.maximum(ecc[ids], level)
    reached = ecc > 0
    return RadiiResult(
        eccentricity=ecc,
        radius=int(ecc[reached].min()) if reached.any() else 0,
        diameter=int(ecc.max()) if n else 0,
        rounds=rounds,
        stats=engine.reset_stats(),
    )
