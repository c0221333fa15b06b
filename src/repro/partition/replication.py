"""Vertex replication analysis (paper §II.D, Figure 3).

When the edge set is partitioned by destination and each partition is laid
out in CSR (indexed by source), a source vertex must be materialised in
every partition that holds at least one of its out-edges.  The *replication
factor* ``r(p)`` is the average number of partitions in which a vertex
appears; the paper reports ``r`` growing sub-linearly with ``p`` (e.g. 11.7
for Twitter at 384 partitions) up to the worst case ``|E| / |V|``.
"""

from __future__ import annotations

import numpy as np

from ..frontier.distinct import sorted_distinct
from ..graph.edgelist import EdgeList
from .by_destination import partition_by_destination
from .vertex_partition import VertexPartition

__all__ = [
    "replication_counts",
    "replication_factor",
    "worst_case_replication_factor",
    "replication_curve",
]


def replication_counts(edges: EdgeList, partition: VertexPartition) -> np.ndarray:
    """Number of partitions in which each vertex is replicated.

    Following the paper's Figure 1 accounting (r = 7/6 for the example
    graph), a vertex is replicated in partition ``i`` exactly when it has at
    least one out-edge assigned to ``i`` — i.e. it must be stored as a
    source in partition ``i``'s CSR.  Vertices with no out-edges count as
    appearing in zero partitions, matching the pruned-CSR layout.
    """
    p = np.int64(partition.num_partitions)
    pid_of_dst = partition.partition_of(edges.dst).astype(np.int64)
    # Distinct (source vertex, partition) pairs: one replica each.
    src_keys = sorted_distinct(edges.src.astype(np.int64) * p + pid_of_dst)
    counts = np.bincount(src_keys // p, minlength=partition.num_vertices)
    return counts.astype(np.int64)


def replication_factor(edges: EdgeList, partition: VertexPartition) -> float:
    """Average replication factor ``r(p)`` over all vertices."""
    if edges.num_vertices == 0:
        return 0.0
    return float(replication_counts(edges, partition).sum()) / edges.num_vertices


def worst_case_replication_factor(edges: EdgeList) -> float:
    """The paper's worst case ``r = |E| / |V|``."""
    if edges.num_vertices == 0:
        return 0.0
    return edges.num_edges / edges.num_vertices


def replication_curve(
    edges: EdgeList,
    partition_counts,
    *,
    balance: str = "edges",
) -> list[tuple[int, float]]:
    """``(p, r(p))`` samples for Figure 3, partitioning by destination."""
    out: list[tuple[int, float]] = []
    for p in partition_counts:
        vp = partition_by_destination(edges, int(p), balance=balance)
        out.append((int(p), replication_factor(edges, vp)))
    return out
