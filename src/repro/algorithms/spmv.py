"""Sparse matrix–vector multiplication (Table II: SPMV, edge-oriented, 1 iteration).

Treats the graph as a sparse matrix ``A`` with ``A[dst, src] = w(src, dst)``
(synthetic deterministic weights, see :mod:`repro.graph.weights`), and
computes ``y = A @ x`` in a single dense edge-map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import VAL_DTYPE
from ..core.engine import Engine
from ..core.ops import EdgeOperator, scatter_add_gather
from ..core.stats import RunStats
from ..frontier.frontier import Frontier
from ..graph.weights import WeightFn

__all__ = ["spmv", "SPMVResult", "SPMVOp"]


class SPMVOp(EdgeOperator):
    """Accumulate ``w(u, v) * x[u]`` into ``y[v]``."""

    writes = ("y",)
    edge_local = True

    def __init__(self, x: np.ndarray, y: np.ndarray, weight_fn: WeightFn) -> None:
        self.x = x
        self.y = y
        self.weight_fn = weight_fn

    def process_edges(self, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> np.ndarray:
        scatter_add_gather(self.y, dst, self.x, src, w)
        return dst


@dataclass(frozen=True)
class SPMVResult:
    """Product vector and engine statistics."""

    y: np.ndarray
    stats: RunStats


def spmv(
    engine: Engine,
    x: np.ndarray | None = None,
    *,
    weight_fn: WeightFn | None = None,
) -> SPMVResult:
    """One ``y = A @ x`` pass over the engine's graph.

    ``x`` defaults to all-ones; ``weight_fn`` defaults to unit-range
    synthetic weights so results are deterministic across layouts.
    """
    n = engine.num_vertices
    if x is None:
        x = np.ones(n, dtype=VAL_DTYPE)
    x = np.ascontiguousarray(x, dtype=VAL_DTYPE)
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    weight_fn = weight_fn or WeightFn()
    y = np.zeros(n, dtype=VAL_DTYPE)
    engine.reset_stats()
    engine.edge_map(Frontier.full(n), SPMVOp(x, y, weight_fn))
    return SPMVResult(y=y, stats=engine.reset_stats())
