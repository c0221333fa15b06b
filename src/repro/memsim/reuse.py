"""Exact LRU stack-distance (reuse-distance) analysis.

The *stack distance* of an access is the number of **distinct** addresses
referenced since the previous access to the same address (infinite for the
first, "cold", access).  It is a pure property of the access order and is
exactly the quantity the paper plots in Figure 2: partitioning by
destination contracts the range of destination addresses per partition,
shortening stack distances.

A fully-associative LRU cache of capacity ``C`` lines misses exactly on
accesses with stack distance >= ``C`` (plus cold accesses), so one
histogram answers *every* capacity at once — used by the MPKI sweeps.

:func:`stack_distances` is the batched offline kernel of
:mod:`repro.memsim.kernel` (prev-occurrence indices from one stable sort,
then exact distinct-counts-in-range via block-decomposed dominance
counting).  The scalar Bennett–Kruskal loop it replaced is its
differential-testing oracle, ``tests/references.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import stack_distance_kernel

__all__ = [
    "stack_distances",
    "ReuseHistogram",
    "reuse_histogram",
    "histogram_of_distances",
    "COLD",
]

#: stack distance reported for cold (first) accesses.
COLD = -1


def stack_distances(trace: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access in ``trace``.

    Returns an ``int64`` array; cold accesses get :data:`COLD` (-1).
    Addresses may be arbitrary integers.  Vectorised; bit-identical to
    the scalar oracle in ``tests/references.py``.
    """
    return stack_distance_kernel(trace)


@dataclass(frozen=True)
class ReuseHistogram:
    """Histogram of stack distances plus the cold-access count."""

    #: sorted distinct stack distances observed (excluding cold).
    distances: np.ndarray
    #: count of accesses at each distance.
    counts: np.ndarray
    cold_accesses: int
    total_accesses: int

    def misses_for_capacity(self, capacity_lines: int) -> int:
        """Fully-associative LRU misses at the given capacity (in lines)."""
        idx = np.searchsorted(self.distances, capacity_lines, side="left")
        return int(self.counts[idx:].sum()) + self.cold_accesses

    def miss_ratio(self, capacity_lines: int) -> float:
        """Fully-associative LRU miss ratio at the given capacity."""
        if self.total_accesses == 0:
            return 0.0
        return self.misses_for_capacity(capacity_lines) / self.total_accesses

    def max_distance(self) -> int:
        """Largest finite stack distance (-1 when every access is cold)."""
        return int(self.distances[-1]) if self.distances.size else -1

    def percentile(self, q: float) -> float:
        """``q``-th percentile (0-100) of finite stack distances."""
        if self.distances.size == 0:
            return float("nan")
        expanded_cum = np.cumsum(self.counts)
        target = q / 100.0 * expanded_cum[-1]
        idx = int(np.searchsorted(expanded_cum, target, side="left"))
        idx = min(idx, self.distances.size - 1)
        return float(self.distances[idx])


def histogram_of_distances(d: np.ndarray) -> ReuseHistogram:
    """Build a :class:`ReuseHistogram` from precomputed stack distances."""
    cold = int(np.count_nonzero(d == COLD))
    finite = d[d != COLD]
    if finite.size:
        distances, counts = np.unique(finite, return_counts=True)
    else:
        distances = np.empty(0, dtype=np.int64)
        counts = np.empty(0, dtype=np.int64)
    return ReuseHistogram(
        distances=distances,
        counts=counts,
        cold_accesses=cold,
        total_accesses=int(d.size),
    )


def reuse_histogram(trace: np.ndarray) -> ReuseHistogram:
    """Stack-distance histogram of ``trace``."""
    return histogram_of_distances(stack_distances(trace))
