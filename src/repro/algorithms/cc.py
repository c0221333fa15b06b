"""Connected components by label propagation (Table II: edge-oriented).

Every vertex starts with its own id as label; each round propagates the
minimum label along out-edges until no label changes.  On a symmetric
(undirected) graph the fixpoint labels identify the connected components;
on a directed graph the fixpoint assigns each vertex the minimum label
among vertices that can reach it, which matches Ligra's behaviour (Ligra's
Components application also assumes a symmetrised input).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._types import VID_DTYPE
from ..core.engine import Engine
from ..core.ops import EdgeOperator
from ..core.stats import RunStats
from ..frontier.distinct import count_distinct
from ..frontier.frontier import Frontier

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..resilience.checkpoint import CheckpointSession

__all__ = ["connected_components", "CCResult", "CCOp"]


class CCOp(EdgeOperator):
    """Propagate minimum labels to destinations; activate changed vertices."""

    combine = "min"

    def __init__(self, labels: np.ndarray) -> None:
        self.labels = labels

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        if src.size == 0:
            return np.empty(0, dtype=VID_DTYPE)
        before = self.labels[dst]
        np.minimum.at(self.labels, dst, self.labels[src])
        return dst[self.labels[dst] < before]


@dataclass(frozen=True)
class CCResult:
    """Component labels (the minimum vertex id of each component on
    symmetric graphs), iteration count and engine statistics."""

    labels: np.ndarray
    iterations: int
    stats: RunStats

    def num_components(self) -> int:
        """Number of distinct labels at the fixpoint."""
        return count_distinct(self.labels)


def connected_components(
    engine: Engine,
    *,
    max_iterations: int | None = None,
    checkpoint: CheckpointSession | None = None,
) -> CCResult:
    """Label-propagation components over the engine's graph."""
    n = engine.num_vertices
    labels = np.arange(n, dtype=VID_DTYPE)
    op = CCOp(labels)
    frontier = Frontier.full(n)
    engine.reset_stats()
    iterations = 0
    if checkpoint is not None:
        iterations, saved = checkpoint.restore()
        if saved is not None:
            labels[...] = saved["labels"]
            frontier = Frontier(n, sparse=saved["frontier"].astype(VID_DTYPE))
    cap = max_iterations if max_iterations is not None else max(n, 1)
    while not frontier.is_empty and iterations < cap:
        frontier = engine.edge_map(frontier, op)
        iterations += 1
        if checkpoint is not None:
            checkpoint.save(iterations, {"labels": labels, "frontier": frontier.as_sparse()})
    return CCResult(labels=labels, iterations=iterations, stats=engine.reset_stats())
