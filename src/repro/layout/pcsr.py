"""Partitioned CSR and partition-ranged CSC layouts (paper §II.C, §II.E).

Partitioned CSR
    For partitioning-by-destination, partition ``i`` holds the edges whose
    destination is homed in ``i``, indexed by *source*.  Source vertices
    are replicated across every partition where they have out-edges, which
    is exactly the storage/work blow-up the paper quantifies (Figures 3/4
    and §II.F).  Each per-partition structure is a pruned
    :class:`~repro.graph.csr.CompressedGraph`.

Ranged CSC
    Partitioning-by-destination leaves the CSC edge order untouched, so the
    paper keeps one *whole-graph* CSC and merely splits the computation
    range by destination.  :class:`RangedCSC` bundles a whole CSC with the
    partition boundaries used to split its traversal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CompressedGraph, build_csc, build_csr
from ..graph.edgelist import EdgeList, sorted_pairs
from ..partition.vertex_partition import VertexPartition

__all__ = ["PartitionedCSR", "RangedCSC"]


@dataclass(frozen=True)
class PartitionedCSR:
    """One pruned CSR per destination-partition."""

    num_vertices: int
    partition: VertexPartition
    parts: tuple[CompressedGraph, ...]

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Number of partitions ``P``."""
        return self.partition.num_partitions

    @property
    def num_edges(self) -> int:
        """Total edges across all partitions (each edge stored once)."""
        return int(sum(p.num_edges for p in self.parts))

    def replicated_vertex_count(self) -> int:
        """Total stored vertex slots, i.e. ``sum_i |sources in partition i|``.

        Divided by |V| this equals the replication factor ``r(p)`` of the
        partitioned-CSR layout.
        """
        return int(sum(p.num_stored_vertices for p in self.parts))

    def storage_bytes(self) -> int:
        """Actual byte footprint, matching the pruned-CSR model of §II.E."""
        return int(sum(p.storage_bytes() for p in self.parts))

    def to_edgelist(self) -> EdgeList:
        """Flatten back to a single edge list (partition-major order)."""
        srcs = [p.edge_sources() for p in self.parts]
        dsts = [p.edge_destinations() for p in self.parts]
        empty = np.empty(0, dtype=np.int32)
        return EdgeList(
            self.num_vertices,
            np.concatenate(srcs) if srcs else empty,
            np.concatenate(dsts) if dsts else empty,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def build(edges: EdgeList, partition: VertexPartition) -> "PartitionedCSR":
        """Split edges by destination home partition; build a pruned CSR each.

        Home partitions are contiguous id ranges, so destination order groups
        the edges by partition; ``build_csr`` sorts each group by
        ``(src, dst)`` itself, so no stable sort is needed."""
        dst, src = sorted_pairs(edges.dst, edges.src)
        offsets = dst.searchsorted(partition.boundaries)
        parts = []
        for i in range(partition.num_partitions):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            sub = EdgeList(edges.num_vertices, src[lo:hi], dst[lo:hi])
            parts.append(build_csr(sub, pruned=True))
        return PartitionedCSR(edges.num_vertices, partition, tuple(parts))


@dataclass(frozen=True)
class RangedCSC:
    """A whole-graph CSC whose traversal is split by destination ranges."""

    csc: CompressedGraph
    partition: VertexPartition

    @property
    def num_partitions(self) -> int:
        """Number of computation ranges."""
        return self.partition.num_partitions

    @property
    def num_edges(self) -> int:
        """Total edges in the (single, whole-graph) CSC."""
        return self.csc.num_edges

    def storage_bytes(self) -> int:
        """Byte footprint of the single CSC copy — independent of ``P``."""
        return self.csc.storage_bytes()

    def range_of(self, i: int) -> tuple[int, int]:
        """Destination-vertex range processed by computation chunk ``i``."""
        return self.partition.vertex_range(i)

    @staticmethod
    def build(edges: EdgeList, partition: VertexPartition) -> "RangedCSC":
        """Build the whole-graph CSC and attach the computation ranges."""
        return RangedCSC(build_csc(edges, pruned=False), partition)
