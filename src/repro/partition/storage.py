"""Closed-form graph storage-size models (paper §II.E, Figure 4).

The paper characterises how each layout's byte footprint scales with the
number of partitions ``p``:

* pruned CSR: ``r(p) |V| (be + bv) + |E| bv`` — grows with the replication
  factor, as zero-degree vertices are dropped but each stored vertex also
  records its id;
* dense CSR (Polymer-style, no pruning): ``p |V| be + |E| bv`` — grows
  linearly in ``p``;
* CSC (kept unpartitioned because partitioning-by-destination does not
  change its traversal order): ``|E| bv + |V| be``;
* COO: ``2 |E| bv`` — independent of ``p``.

These formulas let the benchmarks evaluate Figure 4 both on the scaled
stand-in graphs (with measured ``r(p)``) and at the paper's true graph
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._types import BYTES_PER_EID, BYTES_PER_VID
from ..errors import CapacityError

__all__ = ["StorageModel"]

_GIB = float(1 << 30)


@dataclass(frozen=True)
class StorageModel:
    """Byte-cost model for one graph, parameterised by |V| and |E|.

    ``bytes_per_vid``/``bytes_per_eid`` default to the library conventions
    (the paper's ``bv`` and ``be``).
    """

    num_vertices: int
    num_edges: int
    bytes_per_vid: int = BYTES_PER_VID
    bytes_per_eid: int = BYTES_PER_EID

    def csr_pruned_bytes(self, replication_factor: float) -> int:
        """Partitioned, pruned CSR: ``r(p) |V| (be + bv) + |E| bv``."""
        per_vertex = self.bytes_per_eid + self.bytes_per_vid
        return int(
            replication_factor * self.num_vertices * per_vertex
            + self.num_edges * self.bytes_per_vid
        )

    def csr_dense_bytes(self, num_partitions: int) -> int:
        """Partitioned, unpruned CSR: ``p |V| be + |E| bv``."""
        return int(
            num_partitions * self.num_vertices * self.bytes_per_eid
            + self.num_edges * self.bytes_per_vid
        )

    def csc_bytes(self) -> int:
        """Whole-graph CSC: ``|E| bv + |V| be`` (independent of ``p``)."""
        return int(
            self.num_edges * self.bytes_per_vid
            + self.num_vertices * self.bytes_per_eid
        )

    def csr_whole_bytes(self) -> int:
        """Whole-graph (unpartitioned) CSR: ``|E| bv + |V| be``.

        Numerically the same formula as :meth:`csc_bytes` — one index
        array over vertices plus one neighbour id per edge — but named
        for what it models: the sparse-frontier CSR copy of §III.B.
        """
        return int(
            self.num_edges * self.bytes_per_vid
            + self.num_vertices * self.bytes_per_eid
        )

    def coo_bytes(self) -> int:
        """COO: ``2 |E| bv`` (independent of ``p``)."""
        return int(2 * self.num_edges * self.bytes_per_vid)

    # ------------------------------------------------------------------
    def graphgrind_v2_bytes(self) -> int:
        """Total for the paper's three-copy scheme: whole CSR + whole CSC + COO.

        §III.B: the system stores an *unpartitioned* CSR (for sparse
        frontiers), an unpartitioned CSC (medium-dense) and a partitioned
        COO (dense).  None of the three grows with ``p``, so the memory
        requirement is independent of the number of partitions.
        """
        return self.csr_whole_bytes() + self.csc_bytes() + self.coo_bytes()

    def ligra_bytes(self) -> int:
        """Ligra/Polymer-style two-copy scheme: whole CSR + whole CSC."""
        return 2 * self.csc_bytes()

    # ------------------------------------------------------------------
    def assert_fits(self, num_bytes: int, dram_bytes: int, *, what: str = "layout") -> None:
        """Raise :class:`CapacityError` when a layout exceeds the machine.

        Models the paper's §IV.A wall: "With the CSC/CSR layout we quickly
        run out of memory" — benchmarks call this to mark points the paper
        could not evaluate.
        """
        if num_bytes > dram_bytes:
            raise CapacityError(
                required_bytes=int(num_bytes),
                available_bytes=int(dram_bytes),
                what=what,
            )

    @staticmethod
    def to_gib(num_bytes: int) -> float:
        """Convert bytes to GiB for reporting against Figure 4's axis."""
        return num_bytes / _GIB
