"""Deterministic, seedable fault injection.

A :class:`FaultPlan` is an explicit list of :class:`FaultEvent`\\ s keyed
by the engine's global edge-map index (and, for partition-scoped faults,
the partition number).  Each event fires exactly once, so a supervised
retry of the same phase succeeds — mirroring a transient worker failure.
Plans are deterministic: the same plan against the same run injects the
same faults, which is what lets the fault matrix assert bit-identical
recovery.

Fault kinds
-----------
``worker_crash``
    Raise :class:`~repro.errors.WorkerFailure`.  Without a partition the
    whole phase is lost and re-queued; with ``:partition`` the crash
    hits one partition task, and the phase journal confines recovery to
    re-executing just that partition.
``partition``
    Raise :class:`WorkerFailure` at the start of one partition task
    inside the edge-map (a partially applied phase; the journal rolls
    that partition's write set back before retrying).
``oom``
    Raise :class:`~repro.errors.CapacityError` — the paper's §IV.A
    256 GiB wall — triggering the supervisor's degradation ladder.
    May be partition-scoped.
``corrupt_checkpoint``
    Flip a byte of the checkpoint written at that step, exercising the
    CRC32 integrity check and fallback-to-older-checkpoint path.
``corrupt_shard``
    Tear one shard of a :class:`~repro.resilience.store.ShardedStore`
    generation (falls back to whole-checkpoint corruption on stores
    without shards), exercising repair-on-read.
``lost_replica``
    Drop one replica's copy from a
    :class:`~repro.resilience.store.ReplicatedStore` (falls back to
    deleting the generation on un-replicated stores), exercising quorum
    read and re-sync.
``stall``
    Make one partition task (simulatedly) overrun its watchdog
    deadline, driving the retry → requeue → degrade escalation ladder.

Network fault kinds
-------------------
The remaining kinds target the simulated network in front of the remote
object store (:mod:`repro.resilience.netsim`).  For these, ``iteration``
indexes the *Nth remote request* the run issues (0-based), not an
edge-map phase, and a ``:partition`` suffix is rejected:

``net_timeout``
    The request never reaches the service; the transport raises
    :class:`~repro.errors.NetTimeoutError` after its timeout elapses
    (in simulated time).
``net_reset``
    Connection reset mid-stream: an upload's payload arrives torn
    (truncated or byte-flipped) before
    :class:`~repro.errors.NetResetError` is raised — caught later by the
    multipart per-part CRC32 check.
``net_throttle``
    A transient 503/SlowDown (:class:`~repro.errors.NetThrottleError`).
``stale_read``
    A bounded-staleness read: the GET/HEAD is served from the key's
    *previous* version when one exists; the client detects the stale
    ETag and re-reads consistently.

Disk I/O fault kinds
--------------------
These target the out-of-core grid store (:mod:`repro.layout.grid`, which
is injected with them and so defines ``IO_FAULT_KINDS`` and
``GRID_WRITE_FAULT_KINDS``).  For read kinds, ``iteration`` indexes the
*Nth grid block read* the store issues (0-based); for write kinds, the
*Nth block write* during preprocessing.  A ``:partition`` suffix is
rejected:

``io_error``
    One block read fails transiently; the store re-reads in place
    (bounded attempts, then :class:`~repro.errors.GridIOError`).
``slow_io``
    One block read is flagged slow, feeding the watchdog's I/O deadline
    ladder (retry → requeue → degrade) without failing the read.
``disk_full``
    One block write hits a full spill device; the preprocessor prunes
    the partial write and retries once
    (:class:`~repro.errors.DiskFullError` if it recurs).
``torn_block``
    One block write completes torn (last byte flipped after the frame
    is written), exercising the CRC check and repair-on-read from the
    manifest's recorded source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CapacityError, ValidationError, WorkerFailure
from ..layout.grid import GRID_WRITE_FAULT_KINDS, IO_FAULT_KINDS

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FAULT_KINDS",
    "NET_FAULT_KINDS",
    "IO_FAULT_KINDS",
    "GRID_WRITE_FAULT_KINDS",
]

#: Kinds injected into the simulated network transport; their
#: ``iteration`` indexes the Nth remote request, not an edge-map phase.
NET_FAULT_KINDS = (
    "net_timeout",
    "net_reset",
    "net_throttle",
    "stale_read",
)

FAULT_KINDS = (
    "worker_crash",
    "partition",
    "oom",
    "corrupt_checkpoint",
    "corrupt_shard",
    "lost_replica",
    "stall",
) + NET_FAULT_KINDS + IO_FAULT_KINDS + GRID_WRITE_FAULT_KINDS

#: Kinds that must name a partition (``kind@iteration:partition``).
_PARTITION_REQUIRED = frozenset({"partition", "stall"})
#: Kinds that may name a partition.
_PARTITION_ALLOWED = _PARTITION_REQUIRED | {"worker_crash", "oom"}


@dataclass
class FaultEvent:
    """One injected fault: ``kind`` at edge-map ``iteration`` (or checkpoint step)."""

    kind: str
    iteration: int
    partition: int | None = None
    fired: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; expected {FAULT_KINDS}"
            )
        if self.iteration < 0:
            raise ValidationError("fault iteration must be non-negative")
        if self.partition is None and self.kind in _PARTITION_REQUIRED:
            raise ValidationError(f"{self.kind!r} faults require a :partition suffix")
        if self.partition is not None and self.kind not in _PARTITION_ALLOWED:
            raise ValidationError(
                f"{self.kind!r} faults do not take a :partition suffix"
            )
        if self.partition is not None and self.partition < 0:
            raise ValidationError("fault partition must be non-negative")

    def spec(self) -> str:
        """The compact ``kind@iteration[:partition]`` form parsed by :meth:`FaultPlan.from_spec`."""
        suffix = f":{self.partition}" if self.partition is not None else ""
        return f"{self.kind}@{self.iteration}{suffix}"


class FaultPlan:
    """An ordered collection of one-shot fault events."""

    def __init__(self, events: list[FaultEvent] | None = None) -> None:
        self.events: list[FaultEvent] = list(events or [])

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``"worker_crash@2,partition@3:1,oom@4,corrupt_checkpoint@5"``."""
        events = []
        for item in filter(None, (s.strip() for s in spec.split(","))):
            try:
                kind, _, where = item.partition("@")
                if not _:
                    raise ValueError("missing '@'")
                it_s, _, part_s = where.partition(":")
                partition = int(part_s) if part_s else None
                events.append(FaultEvent(kind, int(it_s), partition))
            except ValueError as exc:
                raise ValidationError(
                    f"bad fault spec {item!r} (expected kind@iteration[:partition]): {exc}"
                ) from None
        return cls(events)

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        iterations: int,
        num_faults: int = 2,
        kinds: tuple[str, ...] = ("worker_crash", "partition", "oom"),
        max_partition: int = 4,
    ) -> "FaultPlan":
        """Deterministic seeded plan: ``num_faults`` events over ``iterations``."""
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(num_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            iteration = int(rng.integers(max(iterations, 1)))
            partition = (
                int(rng.integers(max_partition))
                if kind in _PARTITION_REQUIRED
                else None
            )
            events.append(FaultEvent(kind, iteration, partition))
        return cls(events)

    def to_spec(self) -> str:
        """Round-trippable compact form."""
        return ",".join(ev.spec() for ev in self.events)

    # ------------------------------------------------------------------
    def validate(self, *, num_partitions: int | None = None) -> "FaultPlan":
        """Typed sanity check of every event; returns the plan.

        Raises :class:`~repro.errors.ValidationError` for unknown kinds
        (possible when events are constructed by mutation rather than the
        checked constructor) and, when ``num_partitions`` is given, for
        partition-scoped events targeting a partition the store does not
        have — a misspelled or out-of-range fault would otherwise simply
        never fire, silently voiding the experiment it was meant to run.
        """
        for ev in self.events:
            if ev.kind not in FAULT_KINDS:
                raise ValidationError(
                    f"fault plan names unknown kind {ev.kind!r}; expected one "
                    f"of {FAULT_KINDS}"
                )
            if (
                num_partitions is not None
                and ev.partition is not None
                and not 0 <= ev.partition < num_partitions
            ):
                raise ValidationError(
                    f"fault {ev.spec()!r} targets partition {ev.partition}, but "
                    f"the store has {num_partitions} partition(s)"
                )
        return self

    # ------------------------------------------------------------------
    # injection hooks (called by the engine / checkpoint manager)
    # ------------------------------------------------------------------
    def before_edge_map(self, iteration: int) -> None:
        """Fire any pending whole-phase fault for this edge-map index."""
        kind = self.take(("worker_crash", "oom"), iteration)
        if kind == "worker_crash":
            raise WorkerFailure(f"injected worker crash at edge-map {iteration}")
        if kind == "oom":
            raise CapacityError(f"injected OOM at edge-map {iteration}")

    def before_partition(self, iteration: int, partition: int) -> None:
        """Fire any pending partition-scoped fault for this (phase, partition)."""
        kind = self.take(("partition", "worker_crash", "oom"), iteration, partition)
        if kind is None:
            return
        where = f"at edge-map {iteration}, partition {partition}"
        if kind == "oom":
            raise CapacityError(f"injected OOM {where}")
        what = "worker crash" if kind == "worker_crash" else "partition-task failure"
        raise WorkerFailure(f"injected {what} {where}")

    def take(
        self, kinds: tuple[str, ...], index: int, partition: int | None = None
    ) -> str | None:
        """Consume one pending event of ``kinds`` at ``index``; returns its kind.

        ``index`` is whatever the kinds count — the edge-map phase for
        ``stall`` (with its ``partition``), the Nth remote request, grid
        block read or block write, or the checkpoint step.  At most one
        event fires per call, so stacked events on the same index fire
        on consecutive attempts.
        """
        for ev in self.events:
            if (
                not ev.fired
                and ev.kind in kinds
                and ev.iteration == index
                and ev.partition == partition
            ):
                ev.fired = True
                return ev.kind
        return None

    # ------------------------------------------------------------------
    def pending(self) -> list[FaultEvent]:
        """Events that have not fired yet."""
        return [ev for ev in self.events if not ev.fired]

    def reset(self) -> None:
        """Re-arm every event (for re-running the same plan)."""
        for ev in self.events:
            ev.fired = False

    def __repr__(self) -> str:
        return f"FaultPlan({self.to_spec()!r})"
