"""Frontier density classification (paper Algorithm 2, §III.A).

The paper introduces a three-way classification of frontiers:

* **sparse**  — ``|F| + sum degout(F) <= |E| / 20`` (the literature's 5 %
  threshold): traverse the unpartitioned CSR forward, visiting only active
  adjacency slices.
* **medium-dense** — between 5 % and 50 % of the edge metric: dense enough
  for a bitmap, but an indexed layout still pays off; traverse the
  (whole-graph, range-partitioned) CSC backward.
* **dense** — above 50 %: most edges are traversed anyway; stream the
  partitioned COO.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .frontier import Frontier

__all__ = ["DensityClass", "DensityThresholds", "classify_frontier"]


class DensityClass(Enum):
    """The paper's three frontier-density classes."""

    SPARSE = "sparse"
    MEDIUM = "medium-dense"
    DENSE = "dense"


@dataclass(frozen=True)
class DensityThresholds:
    """Edge-metric fractions separating the classes.

    Defaults are the paper's experimentally chosen 5 % and 50 %.  Setting
    ``medium`` equal to ``sparse`` disables the medium-dense class;
    setting ``medium`` to infinity disables the dense class entirely
    (Ligra's two-way sparse/dense-backward classification — note the
    metric ``|F| + sum degout(F)`` can exceed ``|E|``, so 1.0 does not
    suffice).
    """

    sparse: float = 1.0 / 20.0
    medium: float = 1.0 / 2.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.sparse <= 1.0) or self.sparse > self.medium:
            raise ValueError(
                f"thresholds must satisfy 0 <= sparse <= 1 and sparse <= medium, "
                f"got sparse={self.sparse}, medium={self.medium}"
            )


def classify_frontier(
    frontier: Frontier,
    out_degrees: np.ndarray | None,
    num_edges: int,
    thresholds: DensityThresholds = DensityThresholds(),
    lengths: np.ndarray | None = None,
) -> DensityClass:
    """Apply Algorithm 2's decision to a frontier.

    Returns the :class:`DensityClass` chosen by comparing the edge metric
    ``|F| + sum_{v in F} degout(v)`` against ``num_edges * thresholds``;
    the degree sum is ``num_edges`` for a full frontier, else that of the
    sparse ids' slice ``lengths`` if given, else read from ``out_degrees``.
    """
    if frontier.size == frontier.num_vertices:
        metric = frontier.size + num_edges
    elif lengths is not None:
        metric = frontier.size + int(lengths.sum())
    else:
        metric = frontier.active_edge_metric(out_degrees)
    if metric > num_edges * thresholds.medium:
        return DensityClass.DENSE
    if metric > num_edges * thresholds.sparse:
        return DensityClass.MEDIUM
    return DensityClass.SPARSE
