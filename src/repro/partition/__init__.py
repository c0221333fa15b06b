"""Graph partitioning: Algorithm 1, replication/storage analysis, Hilbert order."""

from .by_destination import (
    edge_partition_ids,
    edges_per_partition,
    partition_by_destination,
)
from .hilbert import hilbert_index, hilbert_sort_order
from .replication import (
    replication_counts,
    replication_curve,
    replication_factor,
    worst_case_replication_factor,
)
from .reorder import apply_order, bfs_order, degree_order, random_order
from .storage import StorageModel
from .vertex_partition import VertexPartition

__all__ = [
    "VertexPartition",
    "partition_by_destination",
    "edge_partition_ids",
    "edges_per_partition",
    "replication_counts",
    "replication_factor",
    "replication_curve",
    "worst_case_replication_factor",
    "StorageModel",
    "degree_order",
    "bfs_order",
    "random_order",
    "apply_order",
    "hilbert_index",
    "hilbert_sort_order",
]
