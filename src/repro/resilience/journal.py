"""Write-ahead phase journal for partition-granular recovery.

The paper's destination-partitioned layouts hand every partition task a
*disjoint* destination range, which makes partitions independently
restartable units of work: if partition *k* crashes mid-phase, the
writes of the partitions that already finished are untouched and only
*k*'s write set needs rolling back and re-executing.

:class:`PhaseJournal` is the intent log the supervised engine keeps to
exploit that.  Per edge-map phase it records, for every partition task:

``start``
    An intent entry written *before* the task executes (this is what
    makes the log write-ahead: a crash between ``start`` and ``commit``
    identifies exactly which partition's writes are suspect).
``commit``
    The completion record — partition id, destination range, the
    activated vertex ids, the per-partition statistics contributions,
    and a CRC32 digest of the partition's slice of every vertex-length
    state array.
``replay``
    On a retry of the same phase, a committed partition is *replayed*
    from its record (digest-verified) instead of re-executed.

The engine asserts recovery cost through :attr:`reexecutions`: the
number of partition tasks that ran more than once.  A single injected
``worker_crash`` on partition *k* must leave it at exactly 1.

Out-of-core grid execution refines the unit of work one level further:
a destination stripe is processed as a sequence of blocks (one per
source stripe), each mutating the same destination slice incrementally.
The journal therefore also keeps *block-level* records keyed by
``(stripe, block)``, plus a per-stripe digest of the destination slice
after the stripe's most recent commit.  A crash mid-stream re-executes
only the in-flight block: on the supervised retry, the stripe digest
verifies the committed blocks' writes survived intact, those blocks are
replayed from record, and execution resumes at the block that failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import VID_DTYPE

__all__ = ["PartitionRecord", "PhaseJournal"]


@dataclass
class PartitionRecord:
    """One task's committed outcome within an edge-map phase.

    A task is a run of adjacent partitions (:class:`~repro.core.plan.
    PartitionTask`); journalled tasks are always runs of one, so what the
    journal commits, replays and digests is still one partition.

    Attributes
    ----------
    partition:
        The run's first (lowest) partition id within the phase's schedule.
    lo, hi:
        The destination vertex range ``[lo, hi)`` the run owns — the
        write set its ``combine`` contract confines updates to.
    activated:
        Vertex ids the operator activated, its per-partition batches
        concatenated in visit order (pre-dedup; the engine's frontier
        constructor dedups).
    examined, active_edges, scanned:
        The whole run's contributions to the phase's
        :class:`~repro.core.stats.EdgeMapStats`.
    part_examined, touched:
        The run split over its partitions, lowest first: each one's
        examined edges and distinct destinations, for
        :attr:`~repro.core.stats.EdgeMapStats.partition_examined` /
        ``partition_touched_vertices``.  ``None`` where the phase reports
        no per-partition statistics (the sparse whole-range task).
    digest:
        CRC32 over the ``[lo, hi)`` slice of every vertex-length state
        array *after* the task completed; verified before a replay.
    cond_calls:
        How many per-partition cond guards the task stands for: one per
        partition whose batch reached the operator, even where a run
        evaluated ``cond`` once for all of them.  The engine folds this
        count into its ``guards_skipped`` / ``guard_invocations``
        counters wherever the task executed.
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
    digest: int = 0
    cond_calls: int = 0

    @classmethod
    def empty(cls, partition: int, lo: int, hi: int, parts: int = 1) -> "PartitionRecord":
        """Record of a run of ``parts`` partitions with no work (e.g. an
        empty vertex range)."""
        return cls(
            partition, lo, hi, np.empty(0, dtype=VID_DTYPE),
            part_examined=np.zeros(parts, dtype=np.int64),
            touched=np.zeros(parts, dtype=np.int64),
        )


class PhaseJournal:
    """Intent log of partition completions within the current phase."""

    def __init__(self) -> None:
        #: edge-map index of the phase currently journalled.
        self.phase: int | None = None
        self._records: dict[int, PartitionRecord] = {}
        self._executions: dict[int, int] = {}
        # Block-level records for grid execution: (stripe, block) -> record,
        # plus the destination-slice digest after each stripe's last commit.
        self._block_records: dict[tuple[int, int], PartitionRecord] = {}
        self._block_executions: dict[tuple[int, int], int] = {}
        self._stripe_digests: dict[int, int] = {}
        #: cumulative count of partition tasks executed more than once —
        #: the recovery cost a partition-granular fault is allowed to pay.
        self.reexecutions: int = 0
        #: cumulative count of committed partitions replayed from record.
        self.replays: int = 0
        #: append-only human-readable intent log across the whole run.
        self.entries: list[str] = []

    # ------------------------------------------------------------------
    def begin_phase(self, index: int) -> None:
        """Open phase ``index``; re-entering the same phase (a supervised
        retry) keeps the committed records so they can be replayed."""
        if self.phase != index:
            self.phase = index
            self._records.clear()
            self._executions.clear()
            self._block_records.clear()
            self._block_executions.clear()
            self._stripe_digests.clear()

    def invalidate(self) -> None:
        """Discard the current phase's records (whole-phase rollback or a
        partition-count change made them unreplayable)."""
        if self._records or self._block_records:
            self.entries.append(f"phase {self.phase}: journal invalidated")
        self._records.clear()
        self._executions.clear()
        self._block_records.clear()
        self._block_executions.clear()
        self._stripe_digests.clear()

    # ------------------------------------------------------------------
    def completed(self, partition: int) -> PartitionRecord | None:
        """The committed record for ``partition`` in this phase, if any."""
        return self._records.get(partition)

    def note_execution(self, partition: int) -> None:
        """Write the intent entry: ``partition`` is about to execute."""
        count = self._executions.get(partition, 0) + 1
        self._executions[partition] = count
        if count > 1:
            self.reexecutions += 1
        self.entries.append(
            f"phase {self.phase}: start partition {partition} (execution {count})"
        )

    def commit(self, record: PartitionRecord) -> None:
        """Commit a completed partition's record."""
        self._records[record.partition] = record
        self.entries.append(
            f"phase {self.phase}: commit partition {record.partition} "
            f"range [{record.lo}, {record.hi}) digest {record.digest:#010x}"
        )

    def note_replay(self, partition: int) -> None:
        """Record that a committed partition was replayed, not re-executed."""
        self.replays += 1
        self.entries.append(f"phase {self.phase}: replay partition {partition}")

    def drop(self, partition: int) -> None:
        """Discard one record whose digest no longer matches the state."""
        self._records.pop(partition, None)
        self.entries.append(
            f"phase {self.phase}: dropped stale record for partition {partition}"
        )

    # ------------------------------------------------------------------
    # block-level records (grid execution)
    # ------------------------------------------------------------------
    def completed_block(self, stripe: int, block: int) -> PartitionRecord | None:
        """The committed record for block ``(stripe, block)``, if any."""
        return self._block_records.get((stripe, block))

    def note_block_execution(self, stripe: int, block: int) -> None:
        """Write the intent entry: block ``(stripe, block)`` is about to run."""
        key = (stripe, block)
        count = self._block_executions.get(key, 0) + 1
        self._block_executions[key] = count
        if count > 1:
            self.reexecutions += 1
        self.entries.append(
            f"phase {self.phase}: start block ({stripe},{block}) (execution {count})"
        )

    def commit_block(self, record: PartitionRecord, stripe: int, block: int,
                     digest: int) -> None:
        """Commit one block's record; ``digest`` covers the stripe's
        destination slice *after* this block applied."""
        self._block_records[(stripe, block)] = record
        self._stripe_digests[stripe] = digest
        self.entries.append(
            f"phase {self.phase}: commit block ({stripe},{block}) "
            f"digest {digest:#010x}"
        )

    def note_block_replay(self, stripe: int, block: int) -> None:
        """Record that a committed block was replayed, not re-executed."""
        self.replays += 1
        self.entries.append(f"phase {self.phase}: replay block ({stripe},{block})")

    def stripe_digest(self, stripe: int) -> int | None:
        """Destination-slice digest after ``stripe``'s last committed block."""
        return self._stripe_digests.get(stripe)

    def stripe_has_blocks(self, stripe: int) -> bool:
        """Whether ``stripe`` holds any committed block records."""
        return any(s == stripe for s, _ in self._block_records)

    def drop_stripe(self, stripe: int) -> None:
        """Discard a stripe's block records (its slice digest went stale)."""
        stale = [key for key in self._block_records if key[0] == stripe]
        for key in stale:
            del self._block_records[key]
        self._stripe_digests.pop(stripe, None)
        if stale:
            self.entries.append(
                f"phase {self.phase}: dropped {len(stale)} stale block "
                f"record(s) for stripe {stripe}"
            )

    # ------------------------------------------------------------------
    def has_commits(self) -> bool:
        """Whether the current phase holds any committed partitions or blocks."""
        return bool(self._records) or bool(self._block_records)

    def num_commits(self) -> int:
        """Committed partition and block count in the current phase."""
        return len(self._records) + len(self._block_records)

    @property
    def reexecution_count(self) -> int:
        """Partition tasks executed more than once, over the whole run."""
        return self.reexecutions

    def __repr__(self) -> str:
        return (
            f"PhaseJournal(phase={self.phase}, commits={len(self._records)}, "
            f"reexecutions={self.reexecutions}, replays={self.replays})"
        )
