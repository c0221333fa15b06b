"""Compressed sparse adjacency layouts (CSR and CSC).

A :class:`CompressedGraph` stores, for each stored vertex, a contiguous
slice of neighbour ids.  The same class implements both the paper's CSR
(edges grouped by *source*, neighbours are destinations) and CSC (edges
grouped by *destination*, neighbours are sources); the ``axis`` attribute
records which one it is.

Two storage variants follow the paper's §II.E:

* **dense** — every vertex of the graph has an index slot, even if it has
  no incident edge in this (partition of the) graph.  Storage grows as
  ``p |V| be + |E| bv`` with the number of partitions ``p``.
* **pruned** — only vertices with at least one incident edge are stored,
  alongside their vertex ids.  Storage grows with the replication factor:
  ``r(p) |V| (be + bv) + |E| bv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import (
    BYTES_PER_EID,
    BYTES_PER_VID,
    EID_DTYPE,
    VID_DTYPE,
)
from ..errors import GraphFormatError
from .edgelist import EdgeList, sorted_pairs

__all__ = ["CompressedGraph", "build_csr", "build_csc"]


@dataclass(frozen=True)
class CompressedGraph:
    """A CSR- or CSC-format adjacency structure.

    Attributes
    ----------
    axis:
        ``"out"`` for CSR (indexed by source, neighbours are destinations),
        ``"in"`` for CSC (indexed by destination, neighbours are sources).
    num_vertices:
        |V| of the *underlying* graph (ids in ``neighbors`` range over it).
    vertex_ids:
        Ids of the stored (indexed) vertices, ascending.  For a dense layout
        this is ``arange(num_vertices)``; for a pruned layout it contains
        only vertices with a non-empty adjacency slice.
    index:
        Offsets into ``neighbors``; slice ``index[i]:index[i+1]`` holds the
        neighbours of ``vertex_ids[i]``.  Length ``len(vertex_ids) + 1``.
    neighbors:
        Concatenated adjacency lists.
    pruned:
        Whether zero-degree vertices were dropped (see module docstring).
    """

    axis: str
    num_vertices: int
    vertex_ids: np.ndarray
    index: np.ndarray
    neighbors: np.ndarray
    pruned: bool

    def __post_init__(self) -> None:
        if self.axis not in ("out", "in"):
            raise GraphFormatError(f"axis must be 'out' or 'in', got {self.axis!r}")
        if self.index.size != self.vertex_ids.size + 1:
            raise GraphFormatError("index must have len(vertex_ids) + 1 entries")
        if int(self.index[-1]) != self.neighbors.size:
            raise GraphFormatError("index[-1] must equal len(neighbors)")

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of edges stored in this structure."""
        return int(self.neighbors.size)

    @property
    def num_stored_vertices(self) -> int:
        """Number of vertices with an index slot (differs from |V| when pruned)."""
        return int(self.vertex_ids.size)

    def degrees(self) -> np.ndarray:
        """Adjacency-slice length per *stored* vertex."""
        return np.diff(self.index)

    def neighbors_of(self, v: int) -> np.ndarray:
        """Adjacency slice of vertex ``v`` (empty if ``v`` is pruned out)."""
        if self.pruned:
            pos = int(np.searchsorted(self.vertex_ids, v))
            if pos == self.vertex_ids.size or int(self.vertex_ids[pos]) != v:
                return self.neighbors[:0]
        else:
            pos = v
        return self.neighbors[int(self.index[pos]) : int(self.index[pos + 1])]

    def storage_bytes(self) -> int:
        """Actual byte footprint following the paper's accounting.

        Index entries cost ``be`` bytes, neighbour/vertex ids ``bv`` bytes.
        A pruned layout additionally stores the vertex id of each slot.
        """
        idx = self.index.size * BYTES_PER_EID
        nbr = self.neighbors.size * BYTES_PER_VID
        ids = self.vertex_ids.size * BYTES_PER_VID if self.pruned else 0
        return idx + nbr + ids

    # ------------------------------------------------------------------
    def to_edgelist(self) -> EdgeList:
        """Expand back to an edge list (in this structure's edge order)."""
        keyed = np.repeat(self.vertex_ids, np.diff(self.index)).astype(VID_DTYPE)
        if self.axis == "out":
            return EdgeList(self.num_vertices, keyed, self.neighbors)
        return EdgeList(self.num_vertices, self.neighbors, keyed)

    def edge_sources(self) -> np.ndarray:
        """Source vertex id of every stored edge, in storage order."""
        if self.axis == "out":
            return np.repeat(self.vertex_ids, np.diff(self.index)).astype(VID_DTYPE)
        return self.neighbors

    def edge_destinations(self) -> np.ndarray:
        """Destination vertex id of every stored edge, in storage order."""
        if self.axis == "in":
            return np.repeat(self.vertex_ids, np.diff(self.index)).astype(VID_DTYPE)
        return self.neighbors


def _build(edges: EdgeList, axis: str, pruned: bool) -> CompressedGraph:
    if axis == "out":
        keys, values = sorted_pairs(edges.src, edges.dst)
    else:
        keys, values = sorted_pairs(edges.dst, edges.src)
    counts = np.bincount(keys, minlength=edges.num_vertices).astype(EID_DTYPE)
    if pruned:
        vertex_ids = np.flatnonzero(counts > 0).astype(VID_DTYPE)
        counts = counts[vertex_ids]
    else:
        vertex_ids = np.arange(edges.num_vertices, dtype=VID_DTYPE)
    index = np.zeros(counts.size + 1, dtype=EID_DTYPE)
    np.cumsum(counts, out=index[1:])
    return CompressedGraph(
        axis=axis,
        num_vertices=edges.num_vertices,
        vertex_ids=vertex_ids,
        index=index,
        neighbors=values,
        pruned=pruned,
    )


def build_csr(edges: EdgeList, *, pruned: bool = False) -> CompressedGraph:
    """Build a CSR (source-indexed) layout from an edge list.

    Within each vertex's slice, neighbours are sorted ascending, matching
    the paper's Figure 1 layouts.
    """
    return _build(edges, "out", pruned)


def build_csc(edges: EdgeList, *, pruned: bool = False) -> CompressedGraph:
    """Build a CSC (destination-indexed) layout from an edge list."""
    return _build(edges, "in", pruned)
