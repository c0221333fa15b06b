"""Supervision as a layer: the resilience policy and what enforces it.

:class:`ResiliencePolicy` holds the knobs; :class:`Supervisor` is
everything an engine does *only because it was given a policy*.  An
engine built with ``resilience=None`` holds no supervisor and never
calls into this module — its partition loop is "map arguments, call the
kernel, fold the record".  A supervised engine routes the same loop
through two entry points:

:meth:`Supervisor.edge_map` — the phase level
    Snapshot the operator, run the phase, and on a recoverable fault
    (:class:`~repro.errors.WorkerFailure` or
    :class:`~repro.errors.CapacityError`) retry it: after a whole-phase
    rollback, or — when the journal holds commits — keeping the
    committed partitions and re-executing only the failed one.  The
    retry budget spent raises :class:`~repro.errors.RetryExhausted` with
    the last fault chained.  A :class:`CapacityError` additionally walks
    the degradation ladder: the partition count is halved, and when
    halving bottoms out at one partition — or the error's byte
    accounting shows halving cannot close the deficit — and the policy
    opts into spilling, the engine degrades to out-of-core grid
    execution (:mod:`repro.layout.grid`) instead of dying at the paper's
    256 GiB wall.

:meth:`Supervisor.run_tasks` — the task level
    The one replay-or-execute-then-commit routine, shared by in-process
    partition tasks, concurrent batches and grid blocks: committed tasks
    replay from the :class:`~repro.resilience.journal.PhaseJournal`
    (digest-verified), the rest get an intent entry, a watchdog
    deadline, the fault plan's hook, a write-set snapshot that is rolled
    back on failure, and a commit.  A destination range is digested once
    per run of units that write it (a stripe's blocks), when the last
    commits; a run cut short by a failure seals the range's digest from
    the failed unit's snapshot.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import weakref
from dataclasses import dataclass

from ..core.budget import parse_memory_budget
from ..core.ops import WriteSet, overrides_snapshot_hooks, snapshot_blind_spots
from ..core.plan import PartitionRecord
from ..errors import (
    CapacityError,
    RetryExhausted,
    StallTimeout,
    ValidationError,
    WorkerFailure,
)
from ..layout.grid import GridStore
from ..partition.storage import StorageModel
from .faults import FaultPlan
from .journal import PhaseJournal
from .watchdog import Watchdog

__all__ = ["ResiliencePolicy", "Supervisor"]

log = logging.getLogger(__name__)


@dataclass
class ResiliencePolicy:
    """Engine-level supervision knobs.

    Attributes
    ----------
    max_retries:
        Recovery attempts per edge-map phase before
        :class:`~repro.errors.RetryExhausted`; 0 disables recovery (the
        first fault is terminal), which simulates a hard kill.
    fault_plan:
        Optional :class:`FaultPlan` consulted before each edge-map and
        partition task.
    watchdog:
        Optional :class:`~repro.resilience.watchdog.Watchdog` enforcing
        per-partition deadlines with the retry → degrade escalation
        ladder.
    memory_budget:
        Resident-byte budget for out-of-core grid execution: an int
        (bytes) or a spec string (``"512M"``, ``"1.5G"``; see
        :func:`~repro.core.budget.parse_memory_budget`).  Normalised to
        bytes at construction so a malformed spec dies loudly, not at
        the first spill.  Setting it opts the degradation ladder into
        the grid spill rung.
    spill_dir:
        Directory for the spilled grid.  Setting it (with or without a
        ``memory_budget``) also opts into the spill rung; ``None`` with
        a budget set spills to a temporary directory.
    grid_stripes:
        Explicit grid granularity P; ``None`` (default) derives it from
        the budget via
        :func:`~repro.layout.grid.choose_grid_stripes`.
    grid_stripe_mode:
        Stripe boundary assignment for the spilled grid: ``"vertex"``
        (equal vertex ranges, default) or ``"degree"`` (BBC-style
        edge-balanced ranges for skewed graphs; see
        :func:`~repro.layout.grid.grid_stripe_boundaries`).
    """

    max_retries: int = 3
    fault_plan: FaultPlan | None = None
    watchdog: Watchdog | None = None
    memory_budget: int | str | None = None
    spill_dir: str | None = None
    grid_stripes: int | None = None
    grid_stripe_mode: str = "vertex"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if self.grid_stripe_mode not in ("vertex", "degree"):
            raise ValidationError(
                f"grid_stripe_mode must be 'vertex' or 'degree', "
                f"got {self.grid_stripe_mode!r}"
            )
        if self.memory_budget is not None:
            self.memory_budget = parse_memory_budget(self.memory_budget)
        if self.grid_stripes is not None and self.grid_stripes < 1:
            raise ValidationError("grid_stripes must be >= 1")

    @property
    def spill_enabled(self) -> bool:
        """Whether the degradation ladder may spill to the on-disk grid."""
        return self.memory_budget is not None or self.spill_dir is not None


class Supervisor:
    """Runs one engine's phases and partition tasks under a policy."""

    def __init__(self, engine, policy: ResiliencePolicy, journal: PhaseJournal | None):
        # A weak back-reference: the engine owns the supervisor, and the
        # engine's thread pool and spill directory are released by
        # finalizers that must not wait for a cycle collection.
        self._engine = weakref.ref(engine)
        self.policy = policy
        self.journal = journal if journal is not None else PhaseJournal()
        #: edge-map counter, the key fault plans address phases by.
        self.phase = 0
        if policy.fault_plan is not None:
            # Reject misspelled kinds / out-of-range partitions up front:
            # a fault that can never fire silently voids the experiment.
            policy.fault_plan.validate(num_partitions=engine.store.num_partitions)

    @property
    def engine(self):
        return self._engine()

    def _note(self, message: str) -> None:
        self.engine.resilience_log.append(message)
        log.warning("%s", message)

    # ------------------------------------------------------------------
    # phase level: retry loop and degradation ladder
    # ------------------------------------------------------------------
    def edge_map(self, frontier, op):
        """Run one edge-map phase, recovering from faults bit-identically.

        When a partition task fails after others committed, the commits
        stay in place (their records replay on the retry) and only the
        failed partition re-executes.  Capacity faults and faults before
        any commit roll ``op`` and the phase statistics back to the
        pre-phase snapshot.
        """
        engine, policy, journal = self.engine, self.policy, self.journal
        # A declaration says what the operator writes, not what it holds:
        # every operator's attributes are scanned once per phase.
        blind = snapshot_blind_spots(op)
        if blind:
            raise ValidationError(
                f"{type(op).__name__} holds mutable non-array state "
                f"({', '.join(sorted(blind))}) and does not override "
                "snapshot()/restore(); supervised rollback would silently "
                "miss it — override both hooks to cover that state"
            )
        journal.begin_phase(self.phase)
        snapshot = op.snapshot()
        stats_mark = len(engine.stats.edge_maps)
        attempt = 0
        while True:
            try:
                if policy.fault_plan is not None:
                    policy.fault_plan.before_edge_map(self.phase)
                self._assert_budget()
                result = engine._run_phase(frontier, op)
                self.phase += 1
                return result
            except (WorkerFailure, CapacityError) as exc:
                # Partition-granular path: the failed task's write set was
                # already rolled back by run_tasks, and committed
                # partitions replay from the journal — keep their writes.
                granular = not isinstance(exc, CapacityError) and journal.has_commits()
                if not granular:
                    op.restore(snapshot)
                    journal.invalidate()
                del engine.stats.edge_maps[stats_mark:]
                detail = (
                    f"; keeping {journal.num_commits()} committed partition(s)"
                    if granular
                    else ""
                )
                engine.resilience_log.append(
                    f"edge-map {self.phase} attempt {attempt} faulted: {exc}{detail}"
                )
                log.warning("edge-map %d faulted: %s", self.phase, str(exc))
                if isinstance(exc, CapacityError):
                    self._handle_capacity(exc)
                if attempt >= policy.max_retries:
                    raise RetryExhausted(
                        f"edge-map {self.phase} failed after "
                        f"{attempt + 1} attempt(s): {exc}"
                    ) from exc
                attempt += 1

    def _assert_budget(self) -> None:
        """Degrade to the grid when the in-RAM three-copy layout exceeds
        the policy's memory budget.

        This is how an over-budget run reaches the spill rung *before*
        any real allocation fails.  The proactive check is not a fault,
        so it spills directly rather than raising through the retry
        machinery — a hard-kill policy (``max_retries=0``) still gets
        its grid.  A no-op once the grid is attached (the grid's own
        governor enforces the budget from then on) or when the layout
        fits.
        """
        engine, budget = self.engine, self.policy.memory_budget
        if budget is None or engine.grid is not None:
            return
        model = StorageModel(engine.num_vertices, engine.num_edges)
        try:
            model.assert_fits(
                model.graphgrind_v2_bytes(), budget, what="three-copy layout"
            )
        except CapacityError as exc:
            self._degrade_to_grid(exc)

    def _handle_capacity(self, exc: CapacityError) -> None:
        """Walk the capacity degradation ladder: halve, then spill.

        Partition-halving shrinks bookkeeping/replication but not the
        p-independent three-copy layout itself, so when the error's
        structured byte accounting proves the deficit is beyond halving
        (required bytes exceed the whole budget) the ladder jumps
        straight to the grid spill rung.  Otherwise it halves, spilling
        only once halving bottoms out — and only when the policy opted
        in (a memory budget or spill directory is set).  Injected OOMs
        carry no byte accounting, so they always walk the halving ladder
        first.
        """
        policy = self.policy
        if self.engine.grid is not None:
            return  # already at the spill rung; the retry re-streams
        budget = policy.memory_budget
        beyond_halving = (
            exc.required_bytes is not None
            and budget is not None
            and exc.required_bytes > budget
        )
        if policy.spill_enabled and beyond_halving:
            self._degrade_to_grid(exc)
        elif not self._degrade_partitions() and policy.spill_enabled:
            self._degrade_to_grid(exc)

    def _forget_units(self) -> None:
        """Journal records and watchdog history address units of work
        (partition ids, destination ranges) that no longer exist."""
        self.journal.invalidate()
        if self.policy.watchdog is not None:
            self.policy.watchdog.reset()

    def _degrade_to_grid(self, exc: CapacityError) -> None:
        """The ladder's final rung: spill the edge list to an on-disk grid.

        Shards the store's edge list into ``policy.spill_dir`` (or a
        self-cleaning temporary directory) and attaches the resulting
        :class:`~repro.layout.grid.GridStore`; the retry then re-executes
        the phase by streaming blocks under the memory budget.
        """
        engine, policy = self.engine, self.policy
        spill_dir = policy.spill_dir
        if spill_dir is None:
            spill_dir = tempfile.mkdtemp(prefix="repro-grid-")
            weakref.finalize(engine, shutil.rmtree, spill_dir, True)
        grid = GridStore.build(
            engine.store.edges,
            spill_dir,
            num_stripes=policy.grid_stripes,
            stripe_mode=policy.grid_stripe_mode,
            budget=policy.memory_budget,
            fault_plan=policy.fault_plan,
        )
        self._forget_units()
        engine.attach_grid(grid)
        self._note(
            f"degraded to out-of-core grid execution "
            f"({grid.num_stripes}x{grid.num_stripes} blocks in {spill_dir}) "
            f"after CapacityError: {exc}"
        )

    def _degrade_partitions(self) -> bool:
        """Halve the partition count and re-derive every layout.

        Fewer partitions shrink the bookkeeping footprint (and the
        PCSR's replication, §II.E) at the price of locality.  Returns
        False when already at one partition.
        """
        engine = self.engine
        p = engine.store.num_partitions
        if p == 1:
            engine.resilience_log.append(
                "cannot degrade below 1 partition(s); floor is 1"
            )
            return False
        new_p = p // 2
        engine._rebuild_store(new_p)
        self._forget_units()
        self._note(f"degraded partitions {p} -> {new_p} after CapacityError")
        return True

    # ------------------------------------------------------------------
    # task level: journal, write-set rollback, watchdog, fault hooks
    # ------------------------------------------------------------------
    def run_tasks(
        self, op, tasks, execute, *, concurrent: bool = False
    ) -> list[PartitionRecord]:
        """Replay the committed tasks, execute the rest, commit them.

        ``tasks`` are a phase's partition tasks or grid blocks, and
        ``execute(batch)`` runs a list of them and returns their
        records.  In-process execution gets one task at a time, its write
        set snapshotted first and rolled back on a
        :class:`~repro.errors.WorkerFailure`.  Consecutive tasks that write
        one range (a stripe's blocks) share its :class:`WriteSet`, and the
        range is digested once, when the last of them commits.  Should the
        run stop short, the range is sealed with the digest of the state
        its last commit left: the failed task's snapshot, or the live range
        when the failure came before the task ran.  An operator with its
        own snapshot hooks is snapshotted whole by them (still correct: at
        task start every committed unit's writes are in the arrays), keeps
        no write-set copy to digest, and so has each commit digested.

        A ``concurrent`` backend gets every pending task at once and no
        per-task snapshot: the hooks fire in this thread before any block
        starts (the watchdog stays on simulated time — real thread
        wall-clock would break recovery determinism), and nothing commits
        until the batch returns, so a failure — raised only once no block
        is still writing in place — finds the journal without commits and
        :meth:`edge_map` rolls the whole phase back.
        """
        n, journal = self.engine.num_vertices, self.journal
        if journal.has_commits():
            self._drop_stale(op, n, tasks)
        out = [self._replay(task) for task in tasks]
        pending = [k for k, record in enumerate(out) if record is None]
        if concurrent and pending:
            batch = [tasks[k] for k in pending]
            for task in batch:
                self._begin(task)
            for k, task, record in zip(pending, batch, execute(batch)):
                record.digest = WriteSet(op, n, task.lo, task.hi).digest()
                journal.commit(record, task.block)
                out[k] = record
            return out
        ranges = [(tasks[k].lo, tasks[k].hi) for k in pending] + [None]
        custom, unsealed = overrides_snapshot_hooks(type(op)), False
        for at, k in enumerate(pending):
            task, span = tasks[k], ranges[at]
            if at == 0 or span != ranges[at - 1]:
                owned = WriteSet(op, n, *span)
            saved = None
            try:
                self._begin(task)
                saved = op.snapshot() if custom else owned.snapshot()
                (record,) = execute([task])
            except BaseException as exc:
                if unsealed:
                    journal.seal(*span, owned.digest(saved))
                if saved is not None and isinstance(exc, WorkerFailure):
                    (op if custom else owned).restore(saved)
                raise
            last = custom or span != ranges[at + 1]
            record.digest = owned.digest() if last else None
            journal.commit(record, task.block)
            out[k] = record
            unsealed = not last
        return out

    def _drop_stale(self, op, n: int, tasks) -> None:
        """The replay rule, per destination range ``tasks`` write: the
        range's committed units replay iff its current digest equals the
        digest after its last commit (their writes survived intact);
        otherwise they are dropped and re-execute."""
        journal = self.journal
        for lo, hi in dict.fromkeys((task.lo, task.hi) for task in tasks):
            committed = journal.committed_digest(lo, hi)
            if committed is not None and WriteSet(op, n, lo, hi).digest() != committed:
                journal.drop_range(lo, hi)

    def _replay(self, task) -> PartitionRecord | None:
        """``task``'s record from an earlier attempt, noted as replayed."""
        record = self.journal.completed(task.partition, task.block)
        if record is not None:
            self.journal.note_replay(task.partition, task.block)
        return record

    def _begin(self, task) -> None:
        """Intent entry, deadline, fault-plan hook.  A partition task gets
        its compute deadline here, before it runs; a grid block gets its
        I/O deadline when it is read (:meth:`check_read`)."""
        self.journal.note_execution(task.partition, task.block)
        if task.block is None:
            self._check_deadline(task.partition)
        if self.policy.fault_plan is not None:
            self.policy.fault_plan.before_partition(self.phase, task.partition)

    def _check_deadline(self, i: int) -> None:
        """Enforce partition ``i``'s deadline over simulated time.

        The observed elapsed time equals the cost model's prediction
        unless the fault plan injects a ``stall`` — determinism is what
        keeps recovery bit-reproducible.
        """
        watchdog, plan = self.policy.watchdog, self.policy.fault_plan
        if watchdog is None:
            return
        num_edges = int(self.engine.store.coo.edges_per_partition()[i])
        stalled = plan is not None and plan.take(("stall",), self.phase, i)
        elapsed = (
            2.0 * watchdog.deadline_ns(num_edges)
            if stalled
            else watchdog.predicted_ns(num_edges)
        )
        action = watchdog.observe(i, num_edges, elapsed)
        if action is None:
            return
        self.engine.resilience_log.append(
            f"edge-map {self.phase}: watchdog tripped on partition {i} "
            f"(escalation: {action})"
        )
        if action == "degrade":
            raise CapacityError(
                f"partition {i} stalled repeatedly at edge-map "
                f"{self.phase}; degrading partition count"
            )
        raise StallTimeout(
            f"partition {i} overran its watchdog deadline at edge-map {self.phase}"
        )

    def check_read(self, block: tuple, read) -> None:
        """Enforce one grid block read's I/O deadline over simulated time.

        A ``slow_io`` fault makes the observed read time overrun; the
        escalation raises :class:`StallTimeout`, and because the slow
        block is already resident in the grid cache, the retry replays
        committed blocks and re-reads this one for free.
        """
        watchdog = self.policy.watchdog
        if watchdog is None or read.nbytes == 0:
            return
        elapsed = (
            2.0 * watchdog.io_deadline_ns(read.nbytes)
            if read.slow
            else watchdog.predicted_io_ns(read.nbytes)
        )
        action = watchdog.observe_io(block, read.nbytes, elapsed)
        if action is None:
            return
        self.engine.resilience_log.append(
            f"edge-map {self.phase}: watchdog tripped on grid block "
            f"{block} read (escalation: {action})"
        )
        raise StallTimeout(
            f"grid block {block} read overran its I/O deadline at edge-map "
            f"{self.phase}"
        )
