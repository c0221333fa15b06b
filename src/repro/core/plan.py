"""Phase plans: what one partitioned edge-map phase runs, and over which tasks.

The paper's Algorithm 2 picks a layout and then runs the *same* thing
over every partitioned layout — a set of tasks over disjoint destination
ranges.  A :class:`PhasePlan` is that thing, written down once: the
kernel, the tasks, the arrays they read and the few ``EdgeMapStats``
fields that depend on the layout.  The engine builds one per partitioned
phase, runs it through its one task loop (in its own thread, or in blocks
on the ``threads`` backend's pool) and folds the records; the sparse CSR
phase is one kernel call instead (``Engine._sparse_round``).

The *partition* is the unit of layout, of per-partition statistics, of
journalling and of the operator batch; the *task* is what the loop
executes — a run of adjacent partitions sized to the cache
(:data:`TASK_EDGES`), so that everything around the operator call is
paid once per run instead of once per partition, and for an operator
certified edge-local (:attr:`PhasePlan.fused`) the call itself too.  A
single partition is a run of one, through the same kernels.

The task lists depend only on the store (or grid), the layout,
``options.partition_order`` and the edge target; the builders here are
pure functions of those, so the engine computes each list once per
store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._types import EID_DTYPE, VID_DTYPE
from .gather import narrow_layout

__all__ = [
    "TASK_EDGES",
    "task_edges",
    "PartitionTask",
    "PartitionRecord",
    "PhasePlan",
    "partition_order",
    "range_tasks",
    "coo_tasks",
    "pcsr_layout",
    "grid_block_tasks",
]


#: edges a run of adjacent partitions accumulates before it is closed.
#: Under a partial frontier a COO task holds ~30 B of numpy temporaries per
#: examined edge (the ``bitmap[src]`` mask, the compressed ``src``/``dst``,
#: the operator's gathered values and comparison masks) and a CSC task
#: ~37 B (8-byte ``intp`` ids, no ``int64`` position array), so 2^15 edges keep a
#: task's working set at 1–1.5 MiB — inside the 2 MiB L2 — while 130
#: or so tasks per million edges make the per-task interpreter cost
#: invisible.  A full-frontier phase has no mask and compresses nothing
#: (only the operator's own temporaries remain), and was flat across
#: targets before that too, so the one value serves both.
#: Measured, not only derived: CC on ``road_grid(200)`` at P=384 is flat
#: from 2^13 to 2^16 edges (2.7x faster than runs of one) and ~8 % slower
#: from 2^17 up; dense rmat-17 phases are flat throughout (DESIGN.md,
#: "Tasks are runs of partitions").
TASK_EDGES = 1 << 15


def task_edges(num_edges: int, workers: int = 0) -> int:
    """The edge target of one phase's tasks: :data:`TASK_EDGES`, and on a
    concurrent phase at most ``|E| / (2 * workers)`` so that every worker's
    block still holds two tasks."""
    if workers:
        return min(TASK_EDGES, num_edges // (2 * workers))
    return TASK_EDGES


@dataclass(frozen=True, eq=False)
class PartitionTask:
    """One unit of work within an edge-map phase: a run of adjacent
    partitions, visited lowest first (most often a run of one)."""

    #: the run's first (lowest) partition id.
    partition: int
    #: the run's ``n + 1`` non-decreasing vertex cuts (vertex-id dtype, so
    #: they search the layouts' id arrays without a widening copy): partition
    #: ``partition + k`` owns the disjoint destination range
    #: ``[cuts[k], cuts[k + 1])``.
    cuts: np.ndarray
    #: kernel-specific payload (the COO kernel carries the run's
    #: ``n + 1`` edge cuts into the layout's edge arrays here).
    extra: np.ndarray | None = None
    #: grid execution only: the source stripe whose block this task
    #: streams into destination stripe ``partition``.
    block: int | None = None

    @property
    def lo(self) -> int:
        """Start of the destination range ``[lo, hi)`` the task owns."""
        return int(self.cuts[0])

    @property
    def hi(self) -> int:
        return int(self.cuts[-1])

    @property
    def num_partitions(self) -> int:
        return self.cuts.size - 1


@dataclass
class PartitionRecord:
    """One task's outcome within an edge-map phase: what a kernel returns,
    the fold consumes and the supervisor's journal commits and replays.

    A task is a run of adjacent partitions (:class:`PartitionTask`);
    journalled tasks are always runs of one, so what the journal commits,
    replays and digests is still one partition.

    Attributes
    ----------
    partition:
        The run's first (lowest) partition id within the phase's schedule.
    lo, hi:
        The destination vertex range ``[lo, hi)`` the run owns — the
        write set its ``combine`` contract confines updates to.
    activated:
        Vertex ids the operator activated, its batches concatenated in
        visit order (pre-dedup; the engine's frontier constructor dedups).
    all_dst:
        A full-frontier COO run or grid block whose every batch handed
        back the very ``dst`` object it was given: ``activated`` is the
        run's slice of the layout's ``dst``, a view (a block's is copied,
        so that the record does not pin the block past its eviction), and
        a phase of such records alone has nothing to fold.
    examined, active_edges, scanned:
        The whole run's contributions to the phase's
        :class:`~repro.core.stats.EdgeMapStats`.
    part_examined, touched:
        The run split over its partitions, lowest first: each one's
        examined edges and distinct destinations, for
        :attr:`~repro.core.stats.EdgeMapStats.partition_examined` /
        ``partition_touched_vertices``.  ``None`` in the sparse CSR
        phase's record, which reports no per-partition statistics.
    digest:
        CRC32 over the ``[lo, hi)`` slice of every vertex-length state
        array *after* the task completed; the journal keeps the latest
        one per range and verifies it before a replay.  ``None`` on a
        unit the next unit of its range follows (a stripe's blocks): the
        range is digested once, after its last unit.
    cond_calls:
        How many per-partition cond guards the task stands for: one per
        partition whose batch reached the operator, even where a run
        evaluated ``cond`` once for all of them or merged the batches.
        The engine folds this count into its ``guards_skipped`` /
        ``guard_invocations`` counters wherever the task executed.
    """

    partition: int
    lo: int
    hi: int
    activated: np.ndarray
    examined: int = 0
    active_edges: int = 0
    scanned: int = 0
    part_examined: np.ndarray | None = None
    touched: np.ndarray | None = None
    digest: int | None = 0
    cond_calls: int = 0
    all_dst: bool = False

    @classmethod
    def empty(cls, partition: int, lo: int, hi: int, parts: int = 1) -> "PartitionRecord":
        """Record of a run of ``parts`` partitions with no work (e.g. an
        empty vertex range)."""
        return cls(
            partition, lo, hi, np.empty(0, dtype=VID_DTYPE),
            part_examined=np.zeros(parts, dtype=np.int64),
            touched=np.zeros(parts, dtype=np.int64),
        )


@dataclass
class PhasePlan:
    """One partitioned edge-map phase (CSC, COO, partitioned CSR, grid): what
    to run, over what, and how to report it.  The sparse CSR phase has none."""

    #: ``EdgeMapStats.layout`` / ``.direction`` of the phase.
    layout: str
    direction: str
    #: key of :data:`~repro.core.kernels.KERNEL_FUNCTIONS`.
    kernel: str
    tasks: list[PartitionTask]
    #: ``EdgeMapStats.num_partitions`` / ``.uses_atomics``.
    num_partitions: int
    uses_atomics: bool
    #: what the tasks read, by kernel-argument name: layout arrays, and
    #: the per-phase frontier bitmap (with the partitioned CSR, also its
    #: sparse ids), absent when every vertex is active.
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: the operator is certified partition-pure, so its cond guard is
    #: elided; otherwise ``validated_cond`` runs wherever the task does.
    trusted: bool = False
    #: the operator is certified edge-local: a run is one batch to it.
    fused: bool = False
    #: bytes / blocks the grid streamed from disk for this phase.
    io_bytes: int = 0
    io_blocks: int = 0


def partition_order(p: int, options):
    """Partition visit order per ``options.partition_order``.

    Any order is correct for contract-abiding operators (the partitioned
    layouts hand each partition a disjoint destination range);
    ``reverse``/``shuffle`` exist so tests can verify that insensitivity
    bit-for-bit.
    """
    if options.partition_order == "forward":
        return range(p)
    if options.partition_order == "reverse":
        return range(p - 1, -1, -1)
    rng = np.random.default_rng(options.partition_order_seed)
    return rng.permutation(p).tolist()


def _runs(order, weights: np.ndarray, target: int):
    """Split a visit order into ``(first, last)`` runs of ascending
    adjacent partitions, closing a run once its ``weights`` reach
    ``target`` (0: every partition is its own run).  Concatenated, the
    runs are ``order``: ``reverse`` therefore yields runs of one, and
    ``shuffle`` the odd pair."""
    if not target:
        return [(i, i) for i in order]
    runs: list[list[int]] = []
    weight = 0
    for i in order:
        if runs and weight < target and runs[-1][1] + 1 == i:
            runs[-1][1] = i
        else:
            runs.append([i, i])
            weight = 0
        weight += int(weights[i])
    return runs


def range_tasks(ranges, options, weights=None, target: int = 0) -> list[PartitionTask]:
    """Tasks over the partitions of ``ranges``, in visit order: runs of
    adjacent partitions holding ``target`` of the per-partition edge
    ``weights`` each, or (the default) one task per partition."""
    cuts = ranges.boundaries
    order = partition_order(ranges.num_partitions, options)
    return [PartitionTask(a, cuts[a : b + 2]) for a, b in _runs(order, weights, target)]


def coo_tasks(coo, options, target: int = 0) -> list[PartitionTask]:
    """Tasks over the COO partitions, carrying their edge cuts: runs of
    adjacent partitions of ``target`` edges each, or one per partition."""
    cuts, bounds = coo.partition.boundaries, coo.partition_index
    order = partition_order(coo.num_partitions, options)
    return [
        PartitionTask(a, cuts[a : b + 2], extra=bounds[a : b + 2])
        for a, b in _runs(order, np.diff(bounds), target)
    ]


def pcsr_layout(pcsr, options):
    """The partitioned CSR's ``(tasks, shared arrays)``; ``num_stored`` is
    the per-partition stored-vertex count."""
    shared: dict[str, np.ndarray] = {
        "num_stored": np.array([part.num_stored_vertices for part in pcsr.parts], np.int64)
    }
    for i, part in enumerate(pcsr.parts):
        shared[f"index:{i}"], shared[f"neighbors:{i}"] = narrow_layout(part.index, part.neighbors)
        shared[f"vertex_ids:{i}"] = part.vertex_ids
    return range_tasks(pcsr.partition, options), shared


def grid_block_tasks(grid):
    """The grid's stripe vertex ranges and one task per non-empty block,
    stripe-major with ascending source blocks inside each stripe."""
    p = grid.num_stripes
    ranges = [grid.stripes.vertex_range(i) for i in range(p)]
    return ranges, [
        PartitionTask(
            j, np.array(ranges[j], VID_DTYPE),
            extra=np.array([0, grid.block_edges(i, j)], EID_DTYPE), block=i,
        )
        for j in range(p)
        for i in range(p)
        if grid.block_edges(i, j)
    ]
