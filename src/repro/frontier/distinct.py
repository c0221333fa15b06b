"""Distinct vertex ids, read off the ids' own range (paper §II.B).

Partitioning by destination confines a task's destinations to a short
contiguous vertex range, and a dense phase's activated ids fill most of
``[0, |V|)``.  For such ids a sort or a hash set is wasted work: mark a
``bool`` scratch the size of the span and read the answer back.  Widely
scattered ids (a road network's BFS wavefront) would pay for a scratch
far larger than themselves, so they are sorted and each run of equal
values keeps its first — a stream, where numpy >= 2.3's ``np.unique``
probes a hash set (14x slower at 1 000 ``int32`` ids).  Every function
chooses from the ids alone and returns exactly what ``np.unique`` would —
same values, same dtype, a fresh array (or its size: over everything, or
between the vertex cuts of a run of adjacent partitions).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SPAN_PER_ID", "count_distinct", "count_distinct_between", "sorted_distinct"]

#: the scratch path runs when ``max - min + 1 <= SPAN_PER_ID * size``:
#: at most this many scratch bytes are zeroed and scanned per id.
SPAN_PER_ID = 4


def _mark(ids: np.ndarray):
    """``(lo, seen)`` with ``seen[v - lo]`` true for every id ``v``, or
    ``None`` when the ids are too scattered (or not signed integers).

    The scratch is indexed by ``v - lo`` with ``lo`` the ids' own minimum,
    so no id — negative or huge — can land outside it or wrap around.
    """
    if ids.dtype.kind != "i":
        return None
    if ids.size == 0:
        return 0, np.zeros(0, dtype=bool)
    # the first and last ids bound the span from below: scattered ids (a
    # wavefront's, ascending) are declined without reading them all
    if abs(int(ids.flat[-1]) - int(ids.flat[0])) >= SPAN_PER_ID * ids.size:
        return None
    lo = int(ids.min())
    span = int(ids.max()) - lo + 1
    if span > SPAN_PER_ID * ids.size:
        return None
    seen = np.zeros(span, dtype=bool)
    # intp is what fancy indexing converts to anyway, and the difference
    # cannot overflow it the way it can the ids' own dtype.
    seen[np.subtract(ids, lo, dtype=np.intp)] = True
    return lo, seen


def _scattered(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` for ids ``_mark`` declined: a copy if they ascend
    strictly (an operator's claimed ids), else sorted, then the first of
    every run of equal values.  Only ids that are not signed integers
    (NaNs to collapse) are still handed to ``np.unique``."""
    if ids.dtype.kind != "i":
        return np.unique(ids)
    flat = ids.reshape(-1)
    if (flat[1:] > flat[:-1]).all():
        return flat.copy()
    s = np.sort(flat)
    first = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``ids``, always a fresh array; off
    the scratch they come back as ``intp``, whatever the ids' dtype.  One id
    or none is its own answer: no span to read, nothing to sort."""
    if ids.size <= 1:
        return ids.reshape(-1).copy()
    marked = _mark(ids)
    if marked is None:
        return _scattered(ids)
    lo, seen = marked
    out = seen.nonzero()[0]
    out += lo
    return out


def sorted_distinct(ids: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``ids``; equal to ``np.unique(ids)``."""
    ids = np.asarray(ids)
    return _distinct(ids).astype(ids.dtype, copy=False)


def count_distinct(ids: np.ndarray) -> int:
    """How many distinct values ``ids`` holds; ``np.unique(ids).size``."""
    ids = np.asarray(ids)
    marked = _mark(ids)
    if marked is None:
        return int(_scattered(ids).size)
    return int(np.count_nonzero(marked[1]))


def count_distinct_between(ids: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """How many distinct values of ``ids`` lie in each ``[cuts[k], cuts[k+1])``.

    ``cuts`` is a non-decreasing integer array (the vertex boundaries of
    a run of adjacent partitions); the ids are marked once and the
    counts read off at the cuts, so entry ``k`` is ``np.unique`` of the
    ids inside cut ``k`` — 0 for a zero-width cut, all zeros for empty
    ``ids``.
    """
    # searched in id space: the ids fit their dtype, where ``cuts - lo`` might not
    at = _distinct(np.asarray(ids)).searchsorted(cuts)
    return at[1:] - at[:-1]
