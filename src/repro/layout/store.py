"""The composite three-copy graph store (paper §III.A/§III.B).

GraphGrind-v2 keeps three layouts of the same graph, each tuned to one
frontier-density class:

* a whole-graph (unpartitioned) **CSR** for *sparse* frontiers — forward
  traversal touching only the active vertices' adjacency slices;
* a whole-graph **CSC** with partitioned *computation ranges* for
  *medium-dense* frontiers — backward traversal, no atomics needed since
  edges are grouped by destination;
* a destination-partitioned **COO** for *dense* frontiers — aggressive
  partition counts (the paper uses 384), sequential edge streaming, no
  atomics once ``P >= threads``.

Memory use is independent of the partition count (§III.B): neither the
ranged CSC nor the COO replicates vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..graph.csr import CompressedGraph, build_csr
from ..graph.edgelist import EdgeList
from ..partition.by_destination import partition_by_destination
from ..partition.vertex_partition import VertexPartition
from .coo import PartitionedCOO
from .pcsr import PartitionedCSR, RangedCSC

__all__ = ["GraphStore"]


@dataclass(frozen=True)
class GraphStore:
    """All layouts of one graph, plus cached degree arrays."""

    edges: EdgeList
    csr: CompressedGraph
    csc: RangedCSC
    coo: PartitionedCOO

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """|V| of the underlying graph."""
        return self.edges.num_vertices

    @property
    def num_edges(self) -> int:
        """|E| of the underlying graph."""
        return self.edges.num_edges

    @property
    def num_partitions(self) -> int:
        """Partition count used by the COO layout and CSC compute ranges."""
        return self.coo.num_partitions

    @cached_property
    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex (cached; used by frontier density checks)."""
        return self.edges.out_degrees()

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """In-degree per vertex (cached)."""
        return self.edges.in_degrees()

    def storage_bytes(self) -> int:
        """Total bytes of the three stored copies."""
        return (
            self.csr.storage_bytes()
            + self.csc.storage_bytes()
            + self.coo.storage_bytes()
        )

    def transposed(self) -> "GraphStore":
        """Store of the reversed graph (used e.g. by betweenness centrality)."""
        return GraphStore.build(
            self.edges.reversed(),
            num_partitions=self.num_partitions,
            edge_order=self.coo.edge_order,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def build(
        edges: EdgeList,
        *,
        num_partitions: int = 1,
        edge_order: str = "source",
        balance: str = "edges",
        partition: VertexPartition | None = None,
    ) -> "GraphStore":
        """Construct all three layouts for ``edges``.

        Parameters
        ----------
        num_partitions:
            ``P`` for the COO layout and the CSC computation ranges.
            Ignored when ``partition`` is given explicitly.
        edge_order:
            Intra-partition COO edge order (``"source"``, ``"destination"``
            or ``"hilbert"``).
        balance:
            ``"edges"`` (Algorithm 1) or ``"vertices"``.
        """
        if partition is None:
            partition = partition_by_destination(edges, num_partitions, balance=balance)
        csr = build_csr(edges, pruned=False)
        csc = RangedCSC.build(edges, partition)
        # §III.D: "The COO layout is always partitioned such that each
        # partition has the same number of edges", regardless of the
        # balance criterion used for the CSC computation ranges.
        if balance == "edges":
            coo_partition = partition
        else:
            coo_partition = partition_by_destination(
                edges, partition.num_partitions, balance="edges"
            )
        coo = PartitionedCOO.build(edges, coo_partition, edge_order=edge_order)
        return GraphStore(edges=edges, csr=csr, csc=csc, coo=coo)

    def build_partitioned_csr(self) -> PartitionedCSR:
        """Materialise the partitioned-CSR layout for the same partitioning.

        Not part of the production three-copy scheme (its storage explodes
        with ``P``, §II.E) but needed by the Figure 5 layout comparison.
        """
        return PartitionedCSR.build(self.edges, self.csc.partition)
