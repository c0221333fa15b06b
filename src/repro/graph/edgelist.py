"""Canonical edge-list (COO pair) container and manipulation utilities.

Every layout in the library (CSR, CSC, partitioned COO) is built from an
:class:`EdgeList`.  The container is a thin, immutable-by-convention wrapper
around two parallel numpy arrays of source and destination vertex ids plus
the vertex count.  All operations are vectorised; none iterate per edge in
Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._types import EID_DTYPE, VID_DTYPE, as_vid_array
from ..errors import GraphFormatError

__all__ = ["EdgeList", "sorted_pairs"]


def sorted_pairs(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, values)`` reordered by key, then by value.

    One in-place sort of ``key << 32 | value`` packed into ``uint64``; equal
    packed keys are equal pairs, so this is exactly a stable
    ``lexsort((values, keys))`` followed by two gathers.  Both inputs must
    be parallel, non-negative ``VID_DTYPE`` arrays of fewer than 2**32
    entries (the layouts pack an edge position into the same low word).
    """
    if not (keys.dtype == values.dtype == VID_DTYPE and keys.shape == values.shape):
        raise ValueError("sorted_pairs takes two parallel VID_DTYPE arrays")
    if keys.size >= 2**32 or (keys.size and min(keys.min(), values.min()) < 0):
        raise ValueError("sorted_pairs packs fewer than 2**32 non-negative ids")
    packed = keys.astype(np.uint64)
    packed <<= np.uint64(32)
    packed |= values.view(np.uint32)
    packed.sort()
    values = np.empty_like(keys)  # owns its data: the low word, cast through a uint32 view
    np.copyto(values.view(np.uint32), packed, casting="unsafe")
    packed >>= np.uint64(32)
    return packed.astype(VID_DTYPE), values


@dataclass(frozen=True)
class EdgeList:
    """A directed graph as parallel ``src``/``dst`` arrays.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``|V|``; all ids must lie in ``[0, num_vertices)``.
    src, dst:
        Parallel arrays: edge ``i`` goes from ``src[i]`` to ``dst[i]``.

    Undirected graphs are represented by symmetrising: every undirected edge
    appears once in each direction (see :meth:`symmetrized`).
    """

    num_vertices: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", as_vid_array(self.src))
        object.__setattr__(self, "dst", as_vid_array(self.dst))
        if self.src.shape != self.dst.shape:
            raise GraphFormatError(
                f"src and dst must be parallel arrays, got {self.src.shape} vs {self.dst.shape}"
            )
        if self.num_vertices < 0:
            raise GraphFormatError("num_vertices must be non-negative")
        if self.src.size:
            lo = min(int(self.src.min()), int(self.dst.min()))
            hi = max(int(self.src.max()), int(self.dst.max()))
            if lo < 0 or hi >= self.num_vertices:
                raise GraphFormatError(
                    f"vertex ids must lie in [0, {self.num_vertices}), found range [{lo}, {hi}]"
                )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E|``."""
        return int(self.src.size)

    def __len__(self) -> int:
        return self.num_edges

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an ``int64`` array of length |V|."""
        return np.bincount(self.src, minlength=self.num_vertices).astype(EID_DTYPE)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex as an ``int64`` array of length |V|."""
        return np.bincount(self.dst, minlength=self.num_vertices).astype(EID_DTYPE)

    def has_self_loops(self) -> bool:
        """True if any edge has ``src == dst``."""
        return bool(np.any(self.src == self.dst))

    def is_symmetric(self) -> bool:
        """True if for every edge (u, v) the reverse edge (v, u) exists.

        Multi-edges are respected: the multiset of (u, v) pairs must equal
        the multiset of (v, u) pairs.
        """
        fwd = self._edge_keys(self.src, self.dst)
        bwd = self._edge_keys(self.dst, self.src)
        return bool(np.array_equal(np.sort(fwd), np.sort(bwd)))

    def _edge_keys(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a.astype(np.int64) * np.int64(self.num_vertices) + b.astype(np.int64)

    # ------------------------------------------------------------------
    # transformations (all return new EdgeList instances)
    # ------------------------------------------------------------------
    def reversed(self) -> "EdgeList":
        """Transpose: every edge (u, v) becomes (v, u)."""
        return EdgeList(self.num_vertices, self.dst, self.src)

    def symmetrized(self) -> "EdgeList":
        """Union with the reversed graph, duplicates removed.

        This is how the undirected datasets (Orkut, USAroad, Yahoo_mem) are
        materialised for the directed traversal kernels.
        """
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        return EdgeList(self.num_vertices, src, dst).deduplicated()

    def deduplicated(self) -> "EdgeList":
        """Remove duplicate (src, dst) pairs, keeping one copy of each."""
        if not self.num_edges:
            return self
        keys = self._edge_keys(self.src, self.dst)
        _, idx = np.unique(keys, return_index=True)
        idx.sort()
        return EdgeList(self.num_vertices, self.src[idx], self.dst[idx])

    def without_self_loops(self) -> "EdgeList":
        """Drop edges with ``src == dst``."""
        keep = self.src != self.dst
        return EdgeList(self.num_vertices, self.src[keep], self.dst[keep])

    def sorted_by(self, key: str) -> "EdgeList":
        """Return a copy with edges sorted by ``"source"`` or ``"destination"``.

        Sorting is stable and uses the other endpoint as secondary key, which
        matches the CSR (source-major) / CSC (destination-major) edge orders.
        """
        if key == "source":
            return EdgeList(self.num_vertices, *sorted_pairs(self.src, self.dst))
        if key == "destination":
            dst, src = sorted_pairs(self.dst, self.src)
            return EdgeList(self.num_vertices, src, dst)
        raise ValueError(f"unknown sort key {key!r}; expected 'source' or 'destination'")

    def permuted(self, order: np.ndarray) -> "EdgeList":
        """Reorder edges by an explicit permutation of ``range(num_edges)``."""
        order = np.asarray(order)
        if order.shape != (self.num_edges,):
            raise GraphFormatError(
                f"permutation has shape {order.shape}, expected ({self.num_edges},)"
            )
        return EdgeList(self.num_vertices, self.src[order], self.dst[order])

    def relabeled(self, mapping: np.ndarray) -> "EdgeList":
        """Apply a vertex renumbering ``old id -> mapping[old id]``."""
        mapping = as_vid_array(mapping)
        if mapping.shape != (self.num_vertices,):
            raise GraphFormatError(
                f"mapping has shape {mapping.shape}, expected ({self.num_vertices},)"
            )
        return EdgeList(self.num_vertices, mapping[self.src], mapping[self.dst])

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_pairs(num_vertices: int, pairs) -> "EdgeList":
        """Build from an iterable of (src, dst) tuples (test convenience)."""
        arr = np.asarray(list(pairs), dtype=VID_DTYPE)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError("pairs must be an iterable of (src, dst) tuples")
        return EdgeList(num_vertices, arr[:, 0], arr[:, 1])

    def to_pairs(self) -> list[tuple[int, int]]:
        """Materialise as a list of (src, dst) tuples (test convenience)."""
        return list(zip(self.src.tolist(), self.dst.tolist()))
