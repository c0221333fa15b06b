"""Phase plans: what one edge-map phase runs, and over which tasks.

The paper's Algorithm 2 picks a layout and then runs the *same* thing
everywhere — a set of partition tasks over disjoint destination ranges.
A :class:`PhasePlan` is that thing, written down once: the kernel, the
tasks, the arrays they read and the few ``EdgeMapStats`` fields that
depend on the layout.  The engine builds one per phase, runs it through
its one partition loop (in-process, or as a batch on a concurrent
backend — the plan is the batch description both consume) and folds the
records.

The task lists depend only on the store (or grid), the layout and
``options.partition_order``; the builders here are pure functions of
those, so the engine computes each list once per store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

import numpy as np

__all__ = [
    "PartitionTask",
    "PhasePlan",
    "partition_order",
    "range_tasks",
    "coo_tasks",
    "pcsr_layout",
    "grid_block_tasks",
]


@dataclass(frozen=True)
class PartitionTask:
    """One partition's unit of work within an edge-map phase."""

    partition: int
    #: the disjoint destination vertex range ``[lo, hi)`` this task owns.
    lo: int
    hi: int
    #: kernel-specific picklable payload (the COO kernel carries its
    #: ``(edge_lo, edge_hi)`` slice bounds here).
    extra: tuple = ()
    #: grid execution only: the source stripe whose block this task
    #: streams into destination stripe ``partition``.
    block: int | None = None


@dataclass
class PhasePlan:
    """One edge-map phase: what to run, over what, and how to report it."""

    #: ``EdgeMapStats.layout`` / ``.direction`` of the phase.
    layout: str
    direction: str
    #: key of :data:`~repro.core.kernels.KERNEL_FUNCTIONS`.
    kernel: str
    tasks: list[PartitionTask]
    #: ``EdgeMapStats.num_partitions`` / ``.uses_atomics``.
    num_partitions: int
    uses_atomics: bool
    #: long-lived layout arrays (a concurrent backend publishes them once
    #: and caches them across phases) and per-phase arrays (the frontier
    #: bitmap; republished per dispatch), by kernel-argument name.
    shared: dict[str, np.ndarray] = field(default_factory=dict)
    transient: dict[str, np.ndarray] = field(default_factory=dict)
    #: small picklable kernel metadata.
    meta: dict = field(default_factory=dict)
    #: whether the per-partition examined/touched arrays are reported.
    per_partition: bool = True
    #: vertex slots scanned before any task runs (the sparse frontier).
    scanned: int = 0
    #: whether the tasks are journal-recoverable units of work; the
    #: sparse phase's single whole-range task is not — only the
    #: phase-level rollback applies to it.
    granular: bool = True
    #: the operator is certified partition-pure, so its cond guard is
    #: elided; otherwise ``validated_cond`` runs wherever the task does.
    trusted: bool = False
    #: bytes / blocks the grid streamed from disk for this phase.
    io_bytes: int = 0
    io_blocks: int = 0

    def batches(self):
        """The task lists to run one after another: grid blocks go a
        destination stripe at a time, everything else in one batch."""
        if self.layout != "grid":
            return (self.tasks,)
        return [list(g) for _, g in groupby(self.tasks, key=attrgetter("partition"))]


def partition_order(p: int, options):
    """Partition visit order per ``options.partition_order``.

    Any order is correct for contract-abiding operators (the partitioned
    layouts hand each partition a disjoint destination range);
    ``reverse``/``shuffle`` exist so the sanitizer can verify that
    insensitivity bit-for-bit.
    """
    if options.partition_order == "forward":
        return range(p)
    if options.partition_order == "reverse":
        return range(p - 1, -1, -1)
    rng = np.random.default_rng(options.partition_order_seed)
    return rng.permutation(p).tolist()


def range_tasks(ranges, options) -> list[PartitionTask]:
    """One task per partition of ``ranges``, in visit order."""
    return [
        PartitionTask(i, *ranges.vertex_range(i))
        for i in partition_order(ranges.num_partitions, options)
    ]


def coo_tasks(coo, options) -> list[PartitionTask]:
    """One task per COO partition, carrying its edge-slice bounds."""
    bounds = coo.partition_index
    return [
        PartitionTask(
            i, *coo.partition.vertex_range(i),
            extra=(int(bounds[i]), int(bounds[i + 1])),
        )
        for i in partition_order(coo.num_partitions, options)
    ]


def pcsr_layout(pcsr, options):
    """The partitioned CSR's ``(tasks, shared arrays, stored-vertex counts)``."""
    shared: dict[str, np.ndarray] = {}
    for i, part in enumerate(pcsr.parts):
        shared[f"index:{i}"] = part.index
        shared[f"neighbors:{i}"] = part.neighbors
        shared[f"vertex_ids:{i}"] = part.vertex_ids
    stored = {i: int(part.num_stored_vertices) for i, part in enumerate(pcsr.parts)}
    return range_tasks(pcsr.partition, options), shared, stored


def grid_block_tasks(grid):
    """The grid's stripe vertex ranges and one task per non-empty block,
    stripe-major with ascending source blocks inside each stripe."""
    p = grid.num_stripes
    ranges = [grid.stripes.vertex_range(i) for i in range(p)]
    return ranges, [
        PartitionTask(j, *ranges[j], extra=(0, grid.block_edges(i, j)), block=i)
        for j in range(p)
        for i in range(p)
        if grid.block_edges(i, j)
    ]
