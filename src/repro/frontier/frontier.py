"""Frontier representations (paper §II.A, §III.A).

A frontier is the set of active vertices of one iteration.  Sparse
frontiers are best stored as a sorted list of vertex ids; dense (and
medium-dense) frontiers as a bitmap.  :class:`Frontier` keeps whichever
representation it was built from and converts lazily, caching the result,
so algorithms never pay for a conversion they do not use.

A frontier is immutable: the arrays it stores and hands out are
read-only, so ``size`` — which the engine reads to decide that a phase
needs no frontier filter at all — can never go stale.
"""

from __future__ import annotations

import numpy as np

from .._types import VID_DTYPE, as_vid_array
from .distinct import sorted_distinct

__all__ = ["Frontier"]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Frontier:
    """A set of active vertices with dual sparse/bitmap representation."""

    __slots__ = ("num_vertices", "_sparse", "_bitmap", "_size")

    def __init__(
        self,
        num_vertices: int,
        *,
        sparse: np.ndarray | None = None,
        bitmap: np.ndarray | None = None,
    ) -> None:
        if (sparse is None) == (bitmap is None):
            raise ValueError("provide exactly one of sparse= or bitmap=")
        self.num_vertices = int(num_vertices)
        self._sparse = None
        self._bitmap = None
        if sparse is not None:
            ids = sorted_distinct(as_vid_array(sparse))
            if ids.size and (int(ids[0]) < 0 or int(ids[-1]) >= num_vertices):
                raise ValueError("frontier vertex ids out of range")
            self._sparse = _frozen(ids)  # sorted_distinct's own fresh array
            self._size = int(ids.size)
        else:
            bm = np.asarray(bitmap, dtype=bool)
            if bm.shape != (num_vertices,):
                raise ValueError(
                    f"bitmap must have shape ({num_vertices},), got {bm.shape}"
                )
            if bm.flags.writeable or not bm.flags.owndata:
                bm = bm.copy()  # someone else could still write through it
            self._bitmap = _frozen(bm)
            self._size = int(np.count_nonzero(bm))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty(num_vertices: int) -> "Frontier":
        """The empty frontier (signals algorithm convergence)."""
        return Frontier(num_vertices, sparse=np.empty(0, dtype=VID_DTYPE))

    @staticmethod
    def full(num_vertices: int) -> "Frontier":
        """All vertices active (the usual first PageRank/SPMV frontier)."""
        return Frontier(num_vertices, bitmap=_frozen(np.ones(num_vertices, dtype=bool)))

    @staticmethod
    def of(num_vertices: int, *vertices: int) -> "Frontier":
        """Frontier of explicitly listed vertices (e.g. a BFS root)."""
        return Frontier(num_vertices, sparse=np.array(vertices, dtype=VID_DTYPE))

    @staticmethod
    def from_bitmap(bitmap: np.ndarray) -> "Frontier":
        """Wrap a boolean mask as a frontier."""
        bitmap = np.asarray(bitmap, dtype=bool)
        return Frontier(bitmap.size, bitmap=bitmap)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of active vertices ``|F|``."""
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def is_empty(self) -> bool:
        """True when no vertex is active."""
        return self._size == 0

    def density(self) -> float:
        """Fraction of vertices active."""
        return self._size / self.num_vertices if self.num_vertices else 0.0

    def contains(self, vertices) -> np.ndarray:
        """Boolean membership of each queried vertex (vectorised)."""
        return self.as_bitmap()[np.asarray(vertices)]

    def active_edge_metric(self, out_degrees: np.ndarray) -> int:
        """The paper's traversal-cost estimate ``|F| + sum_{v in F} degout(v)``.

        Algorithm 2 compares this quantity against ``|E|/20`` and ``|E|/2``
        to pick the traversal kernel.
        """
        if self.is_empty:
            return 0
        # Use whichever representation is already materialised — never
        # build the other one just to sum degrees.  The sparse ids are
        # unique and sorted, so both sums visit the same elements in
        # ascending id order and the result is bit-identical.
        if self._sparse is not None:
            deg = int(out_degrees[self._sparse].sum())
        else:
            deg = int(out_degrees[self._bitmap].sum())
        return self._size + deg

    # ------------------------------------------------------------------
    # representations
    # ------------------------------------------------------------------
    def as_sparse(self) -> np.ndarray:
        """Sorted array of active vertex ids (cached, read-only)."""
        if self._sparse is None:
            self._sparse = _frozen(np.flatnonzero(self._bitmap).astype(VID_DTYPE))
        return self._sparse

    def as_bitmap(self) -> np.ndarray:
        """Boolean mask of length |V| (cached, read-only)."""
        if self._bitmap is None:
            bm = np.zeros(self.num_vertices, dtype=bool)
            bm[self._sparse] = True
            self._bitmap = _frozen(bm)
        return self._bitmap

    @property
    def has_sparse(self) -> bool:
        """Whether the sparse representation is already materialised."""
        return self._sparse is not None

    @property
    def has_bitmap(self) -> bool:
        """Whether the bitmap representation is already materialised."""
        return self._bitmap is not None

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frontier):
            return NotImplemented
        return self.num_vertices == other.num_vertices and np.array_equal(
            self.as_sparse(), other.as_sparse()
        )

    def __hash__(self) -> int:  # pragma: no cover - frontiers are not hashable
        raise TypeError("Frontier is unhashable")

    def __repr__(self) -> str:
        return f"Frontier({self._size}/{self.num_vertices} active)"
