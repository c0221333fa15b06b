"""Streaming graph partitioners (extension; related work §V).

The paper dismisses heavyweight partitioners ("generic tools such as
METIS ... take much more time to compute than many graph algorithms",
§V) in favour of Algorithm 1's single-pass cut.  The standard middle
ground in the literature is *streaming* partitioning — one pass over the
edges with a greedy placement rule:

* :func:`ldg_partition` — Linear Deterministic Greedy (Stanton &
  Kliot, KDD'12): place each vertex in the partition holding most of its
  already-placed neighbours, damped by a capacity penalty;
* :func:`fennel_partition` — FENNEL (Tsourakakis et al., WSDM'14): the
  same greedy with an additive ``alpha * gamma * size^(gamma-1)`` cost in
  place of LDG's multiplicative penalty.

Unlike Algorithm 1, these produce *non-contiguous* vertex assignments, so
they cannot drive the contiguous-range layouts directly; they exist to
quantify the trade-off: better edge cut, at the cost of partitioning time
and the loss of the contiguous-range representation (a
:class:`~repro.partition.vertex_partition.VertexPartition` is two words
per boundary; an arbitrary assignment is a full |V| map).  The ablation
benchmark compares edge cut, balance and compute time against
Algorithm 1 (``bench_ext_partitioners.py``, its one experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._types import VID_DTYPE
from repro.core.gather import gather_adjacency, narrow_layout, slice_lengths
from repro.errors import PartitionError
from repro.graph.csr import build_csr
from repro.graph.edgelist import EdgeList
from repro.partition.vertex_partition import VertexPartition

__all__ = [
    "StreamingAssignment",
    "ldg_partition",
    "fennel_partition",
    "assignment_from_ranges",
    "edge_cut_fraction",
]


@dataclass(frozen=True)
class StreamingAssignment:
    """An arbitrary (non-contiguous) vertex→partition map."""

    num_partitions: int
    assignment: np.ndarray  # partition id per vertex

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment, dtype=VID_DTYPE)
        object.__setattr__(self, "assignment", a)
        if a.size and (int(a.min()) < 0 or int(a.max()) >= self.num_partitions):
            raise PartitionError("assignment ids out of range")

    @property
    def num_vertices(self) -> int:
        """Number of assigned vertices."""
        return int(self.assignment.size)

    def sizes(self) -> np.ndarray:
        """Vertex count per partition."""
        return np.bincount(self.assignment, minlength=self.num_partitions)

    def balance(self) -> float:
        """Max partition size over the ideal size (1.0 = perfect)."""
        sizes = self.sizes()
        ideal = self.num_vertices / self.num_partitions
        return float(sizes.max()) / ideal if ideal else 1.0


def assignment_from_ranges(partition: VertexPartition) -> StreamingAssignment:
    """View a contiguous-range partition as a generic assignment."""
    return StreamingAssignment(
        num_partitions=partition.num_partitions,
        assignment=partition.partition_of(np.arange(partition.num_vertices)),
    )


def edge_cut_fraction(edges: EdgeList, assignment: StreamingAssignment) -> float:
    """Fraction of edges whose endpoints land in different partitions."""
    if edges.num_edges == 0:
        return 0.0
    a = assignment.assignment
    return float(np.count_nonzero(a[edges.src] != a[edges.dst])) / edges.num_edges


#: vertices gathered per chunk by the vectorised greedy stream.
_STREAM_CHUNK = 1024


def _greedy_stream(
    edges: EdgeList,
    num_partitions: int,
    score_fn,
    *,
    order: np.ndarray | None = None,
) -> StreamingAssignment:
    """Shared one-pass greedy: place vertices by ``score_fn``.

    ``score_fn(neighbour_counts, sizes)`` returns per-partition scores;
    the vertex goes to the argmax (ties to the smaller partition).

    The placement decisions are inherently sequential (each vertex sees
    its predecessors' assignments), but the expensive part — gathering
    neighbour lists and counting already-placed neighbours per partition
    — is batched: chunks of the stream compute a base count matrix from
    the assignment state at chunk entry in one vectorised pass, and the
    per-vertex loop only patches in the (rare) neighbours placed earlier
    *within* the same chunk.  Counts are integer-valued float64 sums, so
    the decisions are bit-identical to the per-vertex formulation (kept
    as ``_reference_greedy_stream`` in the test suite).
    """
    if num_partitions < 1:
        raise PartitionError("num_partitions must be >= 1")
    n = edges.num_vertices
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_partitions, dtype=np.float64)
    if n == 0:
        return StreamingAssignment(num_partitions, assignment.astype(VID_DTYPE))
    csr = build_csr(edges.symmetrized())
    index, neighbors = narrow_layout(csr.index, csr.neighbors)
    stream = np.asarray(order if order is not None else np.arange(n), dtype=np.int64)
    pos_in_chunk = np.full(n, -1, dtype=np.int64)
    for c0 in range(0, stream.size, _STREAM_CHUNK):
        chunk = stream[c0 : c0 + _STREAM_CHUNK]
        b = chunk.size
        # Every chunk vertex's neighbour list, in one gather.
        ids = chunk.astype(index.dtype)
        deg = slice_lengths(index, ids)
        nb = gather_adjacency(index, neighbors, ids, lengths=deg)[1]
        owner = np.repeat(np.arange(b, dtype=np.int64), deg)
        # Base counts from the assignment state at chunk entry.
        placed = assignment[nb]
        valid = placed >= 0
        base = np.zeros((b, num_partitions), dtype=np.float64)
        np.add.at(base, (owner[valid], placed[valid]), 1.0)
        # Neighbour references into this very chunk need per-vertex
        # patching: only those placed before the owner count.
        pos_in_chunk[chunk] = np.arange(b, dtype=np.int64)
        nb_pos = pos_in_chunk[nb]
        intra = nb_pos >= 0
        intra_owner = owner[intra]  # nondecreasing (owner-major gather)
        intra_nb = nb[intra]
        intra_pos = nb_pos[intra]
        row_lo = np.searchsorted(intra_owner, np.arange(b), side="left")
        row_hi = np.searchsorted(intra_owner, np.arange(b), side="right")
        for j in range(b):
            counts = base[j]
            for t in range(row_lo[j], row_hi[j]):
                if intra_pos[t] < j:
                    counts[assignment[intra_nb[t]]] += 1.0
            scores = score_fn(counts, sizes)
            # argmax with ties broken toward the emptier partition.
            best = np.flatnonzero(scores == scores.max())
            target = int(best[np.argmin(sizes[best])])
            assignment[chunk[j]] = target
            sizes[target] += 1.0
        pos_in_chunk[chunk] = -1
    return StreamingAssignment(num_partitions, assignment.astype(VID_DTYPE))


def ldg_partition(
    edges: EdgeList,
    num_partitions: int,
    *,
    capacity_slack: float = 1.1,
    order: np.ndarray | None = None,
) -> StreamingAssignment:
    """Linear Deterministic Greedy streaming partitioning.

    Score: ``|N(v) ∩ P_i| * (1 - size_i / C)`` with per-partition capacity
    ``C = slack * |V| / k``.
    """
    if num_partitions < 1:
        raise PartitionError("num_partitions must be >= 1")
    capacity = max(capacity_slack * edges.num_vertices / num_partitions, 1.0)

    def score(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        return counts * np.maximum(1.0 - sizes / capacity, 0.0)

    return _greedy_stream(edges, num_partitions, score, order=order)


def fennel_partition(
    edges: EdgeList,
    num_partitions: int,
    *,
    gamma: float = 1.5,
    order: np.ndarray | None = None,
) -> StreamingAssignment:
    """FENNEL streaming partitioning.

    Score: ``|N(v) ∩ P_i| - alpha * gamma * size_i^(gamma-1)`` with the
    paper's ``alpha = m * k^(gamma-1) / n^gamma``.
    """
    n = max(edges.num_vertices, 1)
    m = max(edges.num_edges, 1)
    alpha = m * num_partitions ** (gamma - 1.0) / n**gamma

    def score(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        return counts - alpha * gamma * np.power(sizes, gamma - 1.0)

    return _greedy_stream(edges, num_partitions, score, order=order)
