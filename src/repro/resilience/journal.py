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
    The completion record (the kernels' own
    :class:`~repro.core.plan.PartitionRecord`) — partition id,
    destination range, the activated vertex ids, the per-partition
    statistics contributions, and a CRC32 digest of the partition's
    slice of every vertex-length state array.  A unit that another unit
    of its range follows commits without one: the range is digested
    once, after its last unit.
``seal``
    The digest of a range whose last commit carried none, recorded when
    the run of its units stopped short (the next unit failed).
``replay``
    On a retry of the same phase, a committed partition is *replayed*
    from its record (digest-verified) instead of re-executed.

The engine asserts recovery cost through :attr:`reexecutions`: the
number of partition tasks that ran more than once.  A single injected
``worker_crash`` on partition *k* must leave it at exactly 1.

A *unit* of work is addressed ``(partition, block)``.  ``block`` is
``None`` for a partition task; out-of-core grid execution refines the
unit one level further — a destination stripe is processed as a sequence
of blocks (one per source stripe), each mutating the same destination
slice incrementally — and addresses each as ``(stripe, block)``.  What
decides replayability is the *destination range* a unit writes, not the
unit: the journal keeps, per range, the digest of that slice after the
range's most recent commit, and one rule covers both kinds —

    a range's committed units replay iff the range's current digest
    equals the digest after its last commit; otherwise they are dropped
    and re-execute.

A partition is the only unit of its range, so this is a per-record
check; a stripe's blocks share theirs, so a crash mid-stream re-executes
only the in-flight block when the committed blocks' writes survived, and
the whole stripe when they did not.  "The digest after its last commit"
is that commit's own, or the one :meth:`PhaseJournal.seal` recorded for
it later.
"""

from __future__ import annotations

from ..core.plan import PartitionRecord

__all__ = ["PartitionRecord", "PhaseJournal"]


def _label(partition: int, block: int | None) -> str:
    return f"partition {partition}" if block is None else f"block ({partition},{block})"


class PhaseJournal:
    """Intent log of unit completions within the current phase."""

    def __init__(self) -> None:
        #: edge-map index of the phase currently journalled.
        self.phase: int | None = None
        # unit -> its committed record / how often it started this phase.
        self._records: dict[tuple[int, int | None], PartitionRecord] = {}
        self._executions: dict[tuple[int, int | None], int] = {}
        # destination range -> digest of that slice after its last commit.
        self._digests: dict[tuple[int, int], int] = {}
        #: cumulative count of units executed more than once — the
        #: recovery cost a partition-granular fault is allowed to pay.
        self.reexecutions: int = 0
        #: cumulative count of committed units replayed from record.
        self.replays: int = 0
        #: append-only human-readable intent log across the whole run.
        self.entries: list[str] = []

    # ------------------------------------------------------------------
    def begin_phase(self, index: int) -> None:
        """Open phase ``index``; re-entering the same phase (a supervised
        retry) keeps the committed records so they can be replayed."""
        if self.phase != index:
            self.phase = index
            self._clear()

    def invalidate(self) -> None:
        """Discard the current phase's records (whole-phase rollback or a
        partition-count change made them unreplayable)."""
        if self._records:
            self.entries.append(f"phase {self.phase}: journal invalidated")
        self._clear()

    def _clear(self) -> None:
        self._records.clear()
        self._executions.clear()
        self._digests.clear()

    # ------------------------------------------------------------------
    def completed(self, partition: int, block: int | None = None) -> PartitionRecord | None:
        """The unit's committed record in this phase, if any."""
        return self._records.get((partition, block))

    def note_execution(self, partition: int, block: int | None = None) -> None:
        """Write the intent entry: the unit is about to execute."""
        unit = (partition, block)
        count = self._executions.get(unit, 0) + 1
        self._executions[unit] = count
        if count > 1:
            self.reexecutions += 1
        self.entries.append(
            f"phase {self.phase}: start {_label(*unit)} (execution {count})"
        )

    def commit(self, record: PartitionRecord, block: int | None = None) -> None:
        """Commit a completed unit's record; ``record.digest`` covers its
        destination range *after* this unit applied, or is ``None`` when a
        later unit of the range commits next and :meth:`seal` digests it."""
        lo, hi, digest = record.lo, record.hi, record.digest
        self._records[(record.partition, block)] = record
        if digest is not None:
            self._digests[(lo, hi)] = digest
        self.entries.append(
            f"phase {self.phase}: commit {_label(record.partition, block)} range [{lo}, {hi})"
            + ("" if digest is None else f" digest {digest:#010x}")
        )

    def seal(self, lo: int, hi: int, digest: int) -> None:
        """Record ``[lo, hi)``'s digest after its last commit, which was
        journalled without one."""
        self._digests[(lo, hi)] = digest
        self.entries.append(f"phase {self.phase}: seal range [{lo}, {hi}) digest {digest:#010x}")

    def note_replay(self, partition: int, block: int | None = None) -> None:
        """Record that a committed unit was replayed, not re-executed."""
        self.replays += 1
        self.entries.append(f"phase {self.phase}: replay {_label(partition, block)}")

    def committed_digest(self, lo: int, hi: int) -> int | None:
        """Digest of ``[lo, hi)`` after the range's last commit; ``None``
        when the range holds no committed unit."""
        return self._digests.get((lo, hi))

    def drop_range(self, lo: int, hi: int) -> None:
        """Discard the records of every unit that wrote ``[lo, hi)`` (its
        digest no longer matches the state); they re-execute."""
        stale = [u for u, rec in self._records.items() if (rec.lo, rec.hi) == (lo, hi)]
        for unit in stale:
            del self._records[unit]
        self._digests.pop((lo, hi), None)
        self.entries.append(
            f"phase {self.phase}: dropped stale record of "
            f"{', '.join(_label(*u) for u in stale)} (range [{lo}, {hi}))"
        )

    # ------------------------------------------------------------------
    def has_commits(self) -> bool:
        """Whether the current phase holds any committed units."""
        return bool(self._records)

    def num_commits(self) -> int:
        """Committed unit count in the current phase."""
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"PhaseJournal(phase={self.phase}, commits={len(self._records)}, "
            f"reexecutions={self.reexecutions}, replays={self.replays})"
        )
