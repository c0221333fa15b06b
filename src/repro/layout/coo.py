"""Partitioned coordinate-list (COO) layout (paper §II.E, §III.A.2).

The COO layout lists every edge as an explicit (source, destination) pair.
Partitioned by destination, partition ``i`` holds exactly the in-edges of
the vertices homed in ``i``; since each edge is stored once regardless of
``p``, storage is ``2 |E| bv`` independent of the number of partitions —
the property that lets the paper push to 384+ partitions.

Within a partition, edges may be kept in CSR order (sorted by source, the
default), CSC order (sorted by destination) or Hilbert order (§IV.C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import BYTES_PER_VID, EID_DTYPE
from ..errors import GraphFormatError
from ..graph.edgelist import EdgeList, sorted_pairs
from ..partition.hilbert import hilbert_sort_order
from ..partition.vertex_partition import VertexPartition

__all__ = ["PartitionedCOO", "EDGE_ORDERS"]

#: Supported intra-partition edge orders.
EDGE_ORDERS = ("source", "destination", "hilbert")


@dataclass(frozen=True)
class PartitionedCOO:
    """Edge pairs grouped by destination partition.

    Attributes
    ----------
    num_vertices:
        |V| of the underlying graph.
    src, dst:
        All edges, concatenated partition by partition.
    partition_index:
        Offsets of length ``P + 1``; partition ``i`` owns edge slice
        ``partition_index[i]:partition_index[i+1]``.
    partition:
        The vertex partition that assigned edges to partitions.
    edge_order:
        Intra-partition order, one of :data:`EDGE_ORDERS`.
    """

    num_vertices: int
    src: np.ndarray
    dst: np.ndarray
    partition_index: np.ndarray
    partition: VertexPartition
    edge_order: str

    def __post_init__(self) -> None:
        if self.edge_order not in EDGE_ORDERS:
            raise GraphFormatError(
                f"edge_order must be one of {EDGE_ORDERS}, got {self.edge_order!r}"
            )
        if self.partition_index.size != self.partition.num_partitions + 1:
            raise GraphFormatError("partition_index must have P + 1 entries")
        if int(self.partition_index[-1]) != self.src.size:
            raise GraphFormatError("partition_index[-1] must equal the edge count")

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Total directed edge count."""
        return int(self.src.size)

    @property
    def num_partitions(self) -> int:
        """Number of partitions ``P``."""
        return self.partition.num_partitions

    def partition_slice(self, i: int) -> slice:
        """Edge slice owned by partition ``i``."""
        return slice(int(self.partition_index[i]), int(self.partition_index[i + 1]))

    def partition_edges(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` views of partition ``i``'s edges."""
        s = self.partition_slice(i)
        return self.src[s], self.dst[s]

    def edges_per_partition(self) -> np.ndarray:
        """Edge count of each partition."""
        return np.diff(self.partition_index)

    def storage_bytes(self) -> int:
        """Byte footprint: ``2 |E| bv``, independent of ``P``."""
        return 2 * self.num_edges * BYTES_PER_VID

    def to_edgelist(self) -> EdgeList:
        """Flatten back to an edge list in storage order."""
        return EdgeList(self.num_vertices, self.src, self.dst)

    # ------------------------------------------------------------------
    @staticmethod
    def build(
        edges: EdgeList,
        partition: VertexPartition,
        *,
        edge_order: str = "source",
    ) -> "PartitionedCOO":
        """Group edges by the home partition of their destination.

        Home partitions are contiguous id ranges, so destination order is CSC
        order; source and Hilbert orders are then bucketed stably by partition.
        """
        if edge_order not in EDGE_ORDERS:
            raise GraphFormatError(
                f"edge_order must be one of {EDGE_ORDERS}, got {edge_order!r}"
            )
        if edge_order == "destination":
            dst, src = sorted_pairs(edges.dst, edges.src)
        else:
            if edge_order == "source":
                src, dst = sorted_pairs(edges.src, edges.dst)
            else:
                h = hilbert_sort_order(edges.src, edges.dst, edges.num_vertices)
                src, dst = edges.src[h], edges.dst[h]
            home = partition.partition_of(np.arange(edges.num_vertices)).astype(np.uint64)
            pos = home[dst]  # partition << 32 | position
            pos <<= np.uint64(32)
            pos |= np.arange(edges.num_edges, dtype=np.uint32)
            pos.sort()
            pos = pos.astype(np.uint32)  # the low word; frees the packed keys
            src, dst = src[pos], dst[pos]
        # Partition i starts after the in-edges of every vertex below its range.
        index = np.zeros(edges.num_vertices + 1, dtype=EID_DTYPE)
        np.cumsum(edges.in_degrees(), out=index[1:])
        return PartitionedCOO(
            num_vertices=edges.num_vertices,
            src=src,
            dst=dst,
            partition_index=index[partition.boundaries],
            partition=partition,
            edge_order=edge_order,
        )
