"""The GraphGrind-v2 execution engine (paper §III).

:class:`Engine` implements the Ligra-compatible ``edge_map`` /
``vertex_map`` interface on top of the three-copy
:class:`~repro.layout.store.GraphStore`.  Each ``edge_map`` is the
paper's Algorithm 2 in three steps:

1. **plan** — classify the frontier as sparse / medium-dense / dense and
   pick the layout (sparse → forward over the unpartitioned CSR,
   medium-dense → backward over the ranged CSC, dense → streaming over
   the destination-partitioned COO; ``forced_layout``/``sparse_layout``
   can pin the partitioned CSR, and an attached
   :class:`~repro.layout.grid.GridStore` replaces them all with on-disk
   blocks).  The result is a :class:`PhasePlan`: a kernel name, a list
   of tasks over disjoint destination ranges, the arrays they read and
   the few statistics fields that depend on the layout.
2. **run** — one loop executes the plan's tasks, either in this process
   (:func:`~repro.core.kernels.kernel_args` → ``run_*_partition``) or, for
   operators certified partition-pure, as one batch on the
   ``options.backend`` worker pool; both run the same kernel functions, so
   the result arrays are bit-identical.  A task is a run of adjacent
   partitions about :data:`~repro.core.plan.TASK_EDGES` edges long — the
   kernel hoists the frontier filter, ``cond``, gather and compression
   over the run and hands the operator one batch per partition in order,
   or one for the run (``PhasePlan.fused``), wherever that is proved
   unobservable (:meth:`Engine._task_edges`); everywhere else it is a run
   of one.  A phase whose frontier is every vertex has no filter to apply,
   so its plan carries no bitmap and the kernels skip the frontier work
   (:func:`_frontier_filter`).  A weighted operator's in-process COO and
   CSR tasks read their edge weights from a per-store cache
   (:meth:`Engine._weights`).  A backend failure falls back to the
   in-process path and is logged in ``resilience_log``.
3. **fold** — the tasks' records become the next frontier (looked up
   per store, not folded, when every run activated all of its ``dst``)
   and the phase's single
   :class:`~repro.core.stats.EdgeMapStats`, which the machine model
   converts into simulated execution time.

Fault recovery is a layer, not a path: an engine given a
:class:`~repro.resilience.ResiliencePolicy` holds a
:class:`~repro.resilience.supervisor.Supervisor` that wraps step 2 at
the phase level (retry, degradation ladder) and the task level (journal
replay/commit, write-set rollback, watchdog, fault hooks).  Without a
policy there is no supervisor and none of that code runs.
"""

from __future__ import annotations

import dataclasses
import logging
import weakref
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .._types import VAL_DTYPE, VID_DTYPE
from ..errors import BackendError, ValidationError
from ..frontier.density import DensityClass, classify_frontier
from ..frontier.distinct import count_distinct_between
from ..frontier.frontier import Frontier
from ..layout.store import GraphStore
from .backend import ProcessBackend, backend_options
from .gather import gather_adjacency
from .kernels import (  # noqa: F401 - resolved by name through globals()
    KERNEL_FUNCTIONS,
    cond_guard,
    kernel_args,
    run_coo_partition,
    run_csc_partition,
    run_csr_sparse_partition,
    run_pcsr_partition,
)
from .ops import EdgeOperator
from .options import EngineOptions
from .plan import (
    TASK_EDGES,
    PartitionRecord,
    PartitionTask,
    PhasePlan,
    coo_tasks,
    grid_block_tasks,
    pcsr_layout,
    range_tasks,
    task_edges,
)
from .stats import BackendStats, EdgeMapStats, RunStats, VertexMapStats

if TYPE_CHECKING:  # pragma: no cover - compute never loads resilience unasked
    from ..resilience.journal import PhaseJournal

__all__ = ["Engine"]

log = logging.getLogger(__name__)


def _frontier_filter(frontier: Frontier) -> dict[str, np.ndarray]:
    """The per-phase arrays of a partitioned plan: the frontier's bitmap,
    or nothing when every vertex is active.

    Decided from the frontier alone.  Without a bitmap the kernels take
    every source as live — no ``bitmap[src]`` gather, no compression —
    and hand the operator the very same batches in the very same order,
    so nothing a caller can see depends on which it was (DESIGN.md,
    "Tasks are runs of partitions").
    """
    if frontier.size == frontier.num_vertices:
        return {}
    return {"bitmap": frontier.as_bitmap()}


class Engine:
    """Frontier-based graph processing over a :class:`GraphStore`."""

    def __init__(
        self,
        store: GraphStore,
        options: EngineOptions | None = None,
        *,
        resilience=None,
        journal: PhaseJournal | None = None,
        grid=None,
    ) -> None:
        self.store = store
        self.options = options or EngineOptions()
        self.stats = RunStats()
        #: optional :class:`~repro.resilience.ResiliencePolicy`.
        self.resilience = resilience
        #: optional :class:`~repro.layout.grid.GridStore`; when set (here,
        #: or by the degradation ladder's spill rung), every edge-map
        #: streams the on-disk grid instead of the in-RAM layouts.
        self.grid = grid
        #: human-readable recovery/degradation history of this engine.
        self.resilience_log: list[str] = []
        #: the supervision layer; ``None`` without a policy.
        self._supervisor = None
        if resilience is not None:
            # Only a supervised engine loads the resilience package.
            from ..resilience.supervisor import Supervisor

            self._supervisor = Supervisor(self, resilience, journal)
            journal = self._supervisor.journal
        #: phase journal enabling partition-granular recovery; created
        #: automatically for supervised engines, inert otherwise.
        self.journal = journal
        #: how many per-batch ``validated_cond`` guards actually ran vs.
        #: were skipped because the operator is certified partition-pure.
        self.guard_invocations = 0
        self.guards_skipped = 0
        #: what depends only on the store and the options (task lists,
        #: the partitioned CSR); dropped when the store is rebuilt.
        self._per_store: dict[object, object] = {}
        # The spec is validated by EngineOptions; resolve its kind and
        # typed options once.  The backend object (and its worker pool)
        # is built lazily on the first concurrent dispatch, so engines
        # that never leave the in-process path never fork.
        self._backend_kind, self._backend_conf = backend_options(self.options.backend)
        #: cumulative backend counters (engine lifetime; snapshots are
        #: attached to each detached :class:`RunStats`).
        self.backend_stats = BackendStats(
            spec=self.options.backend, kind=self._backend_kind
        )
        self._backend_obj: ProcessBackend | None = None
        self._backend_finalizer = None
        if grid is not None:
            grid.enable_prefetch(self._backend_conf["prefetch"])
        #: whether the current edge-map phase may run concurrently
        #: (certified operator + non-serial backend); set at admission.
        self._phase_concurrent = False
        self._uncertified_noted: set[type] = set()

    @property
    def num_vertices(self) -> int:
        """|V| of the processed graph."""
        return self.store.num_vertices

    @property
    def num_edges(self) -> int:
        """|E| of the processed graph."""
        return self.store.num_edges

    def reset_stats(self) -> RunStats:
        """Detach and return accumulated statistics, starting a fresh record."""
        out = self.stats
        out.backend = dataclasses.replace(self.backend_stats)
        self.stats = RunStats()
        return out

    def _cached(self, key, build):
        """``build()``, computed once per store."""
        try:
            return self._per_store[key]
        except KeyError:
            value = self._per_store[key] = build()
            return value

    def _weights(self, layout: str, weight_fn) -> np.ndarray:
        """``weight_fn`` of every edge of the store's ``"coo"`` or ``"csr"``,
        in that layout's order: one slot per layout, rebuilt for another
        ``weight_fn`` (by value for a ``WeightFn``), ``TASK_EDGES`` edges at a
        time (a whole-array hash left 3-4 times its size of temporaries on
        the heap).  Never published to shared memory: workers hash per run."""
        key = ("weights", layout)
        if self._per_store.get(key, (None,))[0] != weight_fn:
            self._per_store.pop(key, None)  # the old array goes before the new one
            store, w = self.store, np.empty(self.num_edges, VAL_DTYPE)
            for a in range(0, w.size, TASK_EDGES):
                b = min(a + TASK_EDGES, w.size)
                if layout == "coo":
                    src, dst = store.coo.src[a:b], store.coo.dst[a:b]
                else:  # edge k's source is the CSR slot whose range holds k
                    src = store.csr.index.searchsorted(np.arange(a, b), "right") - 1
                    src, dst = src.astype(VID_DTYPE), store.csr.neighbors[a:b]
                w[a:b] = weight_fn(src, dst)
            self._per_store[key] = (weight_fn, w)
        return self._per_store[key][1]

    def _rebuild_store(self, num_partitions: int) -> None:
        """Re-derive every layout at a new partition count (the
        degradation ladder's halving rung)."""
        self.store = GraphStore.build(
            self.store.edges,
            num_partitions=num_partitions,
            edge_order=self.store.coo.edge_order,
        )
        self._per_store.clear()
        # The old store's layout arrays are obsolete; drop any cached
        # shared-memory copies so workers re-attach the rebuilt ones.
        if self._backend_obj is not None:
            self._backend_obj.discard_layouts()

    # ------------------------------------------------------------------
    # execution backend lifecycle
    # ------------------------------------------------------------------
    def _execution_backend(self) -> ProcessBackend:
        if self._backend_obj is None:
            conf = self._backend_conf
            self._backend_obj = ProcessBackend(
                conf["workers"], conf["start"], stats=self.backend_stats
            )
            # Engines are created freely throughout the test suite and
            # the bench harness; tie the pool's lifetime to the engine's
            # so forgotten engines cannot strand worker processes.
            self._backend_finalizer = weakref.finalize(self, self._backend_obj.close)
        return self._backend_obj

    def _close_backend(self) -> None:
        if self._backend_finalizer is not None:
            self._backend_finalizer.detach()
            self._backend_finalizer = None
        backend, self._backend_obj = self._backend_obj, None
        if backend is not None:
            backend.close()

    def close(self) -> None:
        """Shut down the execution backend (worker pool, shm segments)
        and the grid's background reader, when either exists, and drop
        the per-store caches (an engine used again rebuilds them)."""
        self._per_store.clear()
        self._close_backend()
        if self.grid is not None:
            self.grid.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _note_backend_fallback(self, exc: BackendError) -> None:
        """Demote a failed concurrent backend to the in-process path.

        Workers only ever write shared-memory *copies* of the operator
        state, so the in-process arrays are untouched and the in-process
        re-run of the batch is bit-identical to a healthy concurrent
        one — a dead pool degrades instead of failing, exactly like the
        resilience ladder's other recoveries.
        """
        self.backend_stats.fallbacks += 1
        self.backend_stats.kind = "serial"
        message = f"backend {self.options.backend!r} failed ({exc}); falling back to serial"
        self.resilience_log.append(message)
        log.warning("%s", message)
        try:
            self._close_backend()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        self._backend_kind = "serial"
        self._phase_concurrent = False

    # ------------------------------------------------------------------
    # safety certificates: static proof replaces runtime guards
    # ------------------------------------------------------------------
    def _op_trusted(self, op: EdgeOperator) -> bool:
        """Whether ``op``'s class is certified partition-pure (and the
        options allow trusting that; analysis failures degrade to the
        guarded path).  The effect pass has then proven ``cond`` returns
        ``None`` or a boolean mask parallel to its argument, so the
        dynamic validation is pure overhead — bit-identical either way."""
        if not self.options.trust_certificates:
            return False
        from ..analysis.certificate import operator_is_partition_pure

        return operator_is_partition_pure(op)

    def _task_edges(self, op: EdgeOperator, trusted: bool) -> tuple[int, bool]:
        """The edge target of this phase's tasks (0 keeps one partition
        per task), and whether a run is one operator batch.

        A longer run evaluates ``cond`` for all its partitions before the
        operator sees the first, so runs are built only where that cannot
        be observed — the operator is certified partition-pure (its
        writes stay inside each partition's own range) *and* its ``cond``
        reads written state only at the ids it is handed
        (:attr:`~repro.analysis.certificate.OperatorReport.cond_local`) —
        and where nothing addresses single partitions: the supervisor's
        journal, write-set rollback, watchdog deadlines and fault plans
        all key on partition ids.  Its batches merge where that is proved
        unobservable too (:attr:`~repro.analysis.certificate.OperatorReport.edge_local`).
        """
        if not trusted or self._supervisor is not None:
            return 0, False
        from ..analysis.certificate import operator_report

        report = operator_report(type(op))
        if not report.cond_local:
            return 0, False
        workers = self._backend_conf["workers"] if self._phase_concurrent else 0
        return task_edges(self.num_edges, workers), report.edge_local

    def _admit_backend(self, op: EdgeOperator) -> bool:
        """Whether this phase may run on the concurrent backend.

        Only operators certified partition-pure may.  Strict (default)
        non-serial backends *refuse* the others; ``strict=0`` quietly
        keeps them in-process (logged once per class) so whole test/CI
        matrices can run under ``REPRO_BACKEND=process:...`` without
        certifying every ad-hoc operator.
        """
        if self._backend_kind == "serial":
            return False
        from ..analysis.certificate import operator_is_partition_pure, operator_report

        if operator_is_partition_pure(op):
            return True
        spec, name = self.options.backend, type(op).__name__
        if self._backend_conf["strict"]:
            report = operator_report(type(op))
            detail = f"; {report.reasons[0]}" if report.reasons else ""
            raise ValidationError(
                f"backend {spec!r} requested but {name} is not certified "
                f"partition-pure (certified level: {report.level}){detail} — run "
                f"`python -m repro certify` for the full report, or use a "
                f"':strict=0' backend spec to run uncertified operators on the "
                f"serial path"
            )
        if type(op) not in self._uncertified_noted:
            self._uncertified_noted.add(type(op))
            self.resilience_log.append(
                f"backend {spec!r}: {name} is not certified partition-pure; "
                "running it on the serial path"
            )
            log.info("backend %r: %s not certified; running serially", spec, name)
        return False

    # ------------------------------------------------------------------
    # edge map
    # ------------------------------------------------------------------
    def edge_map(self, frontier: Frontier, op: EdgeOperator) -> Frontier:
        """Apply ``op`` over the out-edges of ``frontier``'s vertices.

        Returns the next frontier: the distinct vertices ``op`` activated.
        """
        if frontier.num_vertices != self.num_vertices:
            raise ValueError("frontier size does not match the graph")
        self._phase_concurrent = self._admit_backend(op)
        if frontier.is_empty:
            return Frontier.empty(self.num_vertices)
        if self._supervisor is None:
            return self._run_phase(frontier, op)
        return self._supervisor.edge_map(frontier, op, self._op_trusted(op))

    def attach_grid(self, grid) -> None:
        """Switch this engine to out-of-core grid execution.

        All subsequent edge-maps stream ``grid``'s blocks under its
        memory budget instead of traversing the in-RAM layouts.  The
        backend spec's ``prefetch=N`` knob starts the grid's background
        reader so block k+1's disk read overlaps block k's compute.
        """
        self.grid = grid
        for key in ("grid", ("weights", "coo"), ("weights", "csr")):  # stale or unused now
            self._per_store.pop(key, None)
        depth = self._backend_conf["prefetch"]
        grid.enable_prefetch(depth)
        self.resilience_log.append(
            f"grid execution attached: {grid.num_stripes}x{grid.num_stripes} "
            f"blocks, {grid.total_bytes()} B on disk, budget "
            f"{grid.budget.limit_bytes or 'unlimited'}, "
            f"prefetch {'x' + str(depth) if depth > 0 else 'off'}"
        )

    def _run_phase(self, frontier: Frontier, op: EdgeOperator) -> Frontier:
        """One attempt at one edge-map phase: plan, run, fold."""
        density = classify_frontier(
            frontier, self.store.out_degrees, self.num_edges, self.options.thresholds
        )
        plan = self._plan(frontier, density, op)
        return self._fold(plan, frontier, density, self._run_plan(plan, op))

    # ------------------------------------------------------------------
    # plan: one small description per layout
    # ------------------------------------------------------------------
    def _plan(self, frontier: Frontier, density: DensityClass, op: EdgeOperator) -> PhasePlan:
        """Algorithm 2's layout decision, as a :class:`PhasePlan`."""
        trusted, fused = self._op_trusted(op), False
        if self.grid is not None:
            plan = self._plan_grid(frontier)
        else:
            layout = self.options.forced_layout or {
                DensityClass.SPARSE: self.options.sparse_layout,
                DensityClass.MEDIUM: "csc",
                DensityClass.DENSE: "coo",
            }[density]
            build = getattr(self, f"_plan_{layout}")
            if layout in ("csc", "coo"):  # the layouts whose partitions coalesce into runs
                target, fused = self._task_edges(op, trusted)
                plan = build(frontier, target)
            elif layout == "csr":
                plan = build(frontier, op.weight_fn)
            else:
                plan = build(frontier)
        plan.trusted, plan.fused = trusted, fused
        return plan

    def _plan_csr(self, frontier: Frontier, weight_fn) -> PhasePlan:
        """Sparse: forward traversal of the unpartitioned CSR.

        The frontier's out-adjacency is gathered once, here — with a
        weighted operator's weights, read from the per-store CSR weights at
        the gather positions — and the phase is one whole-range task that
        always runs in this process: per-partition work on a small
        frontier is pure overhead (§III.A.1).
        """
        active = frontier.as_sparse()
        csr = self.store.csr
        gsrc, gdst, pos = gather_adjacency(csr.index, csr.neighbors, active)
        transient = {"gsrc": gsrc, "gdst": gdst}
        if weight_fn is not None:
            transient["w"] = self._weights("csr", weight_fn)[pos]
        return PhasePlan(
            "csr", "forward", "csr",
            self._cached(
                "csr", lambda: [PartitionTask(0, np.array([0, self.num_vertices], VID_DTYPE))]
            ),
            num_partitions=1,
            uses_atomics=self.options.num_threads > 1,
            transient=transient,
            per_partition=False,
            scanned=int(active.size),
            granular=False,
        )

    def _plan_csc(self, frontier: Frontier, target: int) -> PhasePlan:
        """Medium-dense: backward traversal of the ranged CSC."""
        csc, ranges = self.store.csc.csc, self.store.csc.partition
        return PhasePlan(
            "csc", "backward", "csc",
            self._cached(
                ("csc", target),
                lambda: range_tasks(
                    ranges, self.options, np.diff(csc.index[ranges.boundaries]), target
                ),
            ),
            num_partitions=ranges.num_partitions,
            uses_atomics=False,
            shared={"index": csc.index, "neighbors": csc.neighbors},
            transient=_frontier_filter(frontier),
        )

    def _plan_coo(self, frontier: Frontier, target: int) -> PhasePlan:
        """Dense: streaming traversal of the partitioned COO."""
        coo = self.store.coo
        shared = {"src": coo.src, "dst": coo.dst}
        transient = _frontier_filter(frontier)
        if not transient:
            # With every edge live a partition's touched vertices are its
            # distinct destinations: a constant of the layout.
            shared["distinct"] = self._cached(
                "coo-distinct",
                lambda: count_distinct_between(coo.dst, coo.partition.boundaries),
            )
        return PhasePlan(
            "coo", "forward", "coo",
            self._cached(("coo", target), lambda: coo_tasks(coo, self.options, target)),
            num_partitions=coo.num_partitions,
            uses_atomics=coo.num_partitions < self.options.num_threads,
            shared=shared,
            transient=transient,
        )

    def _plan_pcsr(self, frontier: Frontier) -> PhasePlan:
        """Forced: the partitioned CSR (Figure 5 layout comparison)."""
        tasks, shared = self._cached(
            "pcsr",
            lambda: pcsr_layout(self.store.build_partitioned_csr(), self.options),
        )
        transient = _frontier_filter(frontier)
        if transient:
            # A sparse frontier is binary-searched in each partition's
            # stored slots instead of scanned through the bitmap.
            transient["active_ids"] = frontier.as_sparse()
        return PhasePlan(
            "pcsr", "forward", "pcsr", tasks,
            num_partitions=len(tasks),
            uses_atomics=len(tasks) < self.options.num_threads,
            shared=shared,
            transient=transient,
        )

    def _plan_grid(self, frontier: Frontier) -> PhasePlan:
        """Out-of-core: stream the P×P on-disk grid under the budget.

        A task is one block; destination stripes are the write-set unit
        (each owns a disjoint vertex range, like COO partitions).  Within
        a stripe the source blocks run in ascending order, which — with
        each block's edges sorted by source — reproduces the in-RAM COO
        path's edge order exactly, so results are bit-identical.
        Selective scheduling drops blocks whose source stripe holds no
        active vertices (GridGraph §3.3); under a full frontier every
        stripe is active.
        """
        grid = self.grid
        ranges, blocks = self._cached("grid", lambda: grid_block_tasks(grid))
        transient = _frontier_filter(frontier)
        tasks = blocks
        if transient:
            bitmap = transient["bitmap"]
            active = [bool(bitmap[lo:hi].any()) for lo, hi in ranges]
            tasks = [task for task in blocks if active[task.block]]
            grid.stats.blocks_skipped += len(blocks) - len(tasks)
        return PhasePlan(
            "grid", "forward", "coo", tasks,
            num_partitions=grid.num_stripes,
            uses_atomics=False,
            transient=transient,
        )

    # ------------------------------------------------------------------
    # run: the one task loop
    # ------------------------------------------------------------------
    def _run_plan(self, plan: PhasePlan, op: EdgeOperator) -> list[PartitionRecord]:
        """Run ``plan``'s tasks: as one batch on the concurrent backend
        when the phase was admitted, else here.  With a supervisor, each
        batch goes through its replay-or-execute-then-commit routine."""
        supervisor = self._supervisor if plan.granular else None
        if self._phase_concurrent and plan.layout != "grid" and len(plan.tasks) > 1:
            run = partial(self._dispatch, plan, op)
            try:
                if supervisor is None:
                    return run(plan.tasks)
                return supervisor.run_tasks(op, plan.tasks, run, concurrent=True)
            except BackendError as exc:
                # Workers never touch the in-process arrays, so the batch
                # simply re-runs here.
                self._note_backend_fallback(exc)
        arrays = {**plan.shared, **plan.transient}
        if plan.layout == "coo" and op.weight_fn is not None:
            arrays["w"] = self._weights("coo", op.weight_fn)
        run = partial(self._execute, plan, arrays, op)
        ahead = self._read_ahead if plan.layout == "grid" else None
        records: list[PartitionRecord] = []
        for tasks in plan.batches():
            if supervisor is not None:
                records += supervisor.run_tasks(op, tasks, run, on_pending=ahead)
            else:
                if ahead is not None:
                    ahead(tasks)
                records += run(tasks)
        return records

    def _execute(self, plan: PhasePlan, arrays: dict, op: EdgeOperator, tasks):
        """Run ``tasks`` in this process.  The kernel is looked up in this
        module's namespace on every call, so a patched binding is used."""
        kernel = plan.kernel
        run = globals()[KERNEL_FUNCTIONS[kernel]]
        cond = cond_guard(not plan.trusted)
        records = []
        for task in tasks:
            if task.block is not None:
                arrays = self._read_block(plan, arrays, task)
            rec = run(op, cond, *kernel_args(kernel, arrays, task, plan.fused))
            if task.block is not None and np.may_share_memory(rec.activated, arrays["dst"]):
                # The operator handed back the streamed dst itself: copy
                # it, or the record pins the whole block until the fold,
                # past the budget's eviction of it.
                rec.activated = rec.activated.copy()
            records.append(rec)
        self._count_guards(plan, records)
        return records

    def _dispatch(self, plan: PhasePlan, op: EdgeOperator, tasks):
        """Run ``tasks`` as one batch on the concurrent backend."""
        backend = self._execution_backend()
        records = backend.run_partitions(plan, op, tasks, self.num_vertices)
        for task, rec in zip(tasks, records):
            if rec.all_dst:  # sent without ids: they are the run's slice of the layout
                rec.activated = plan.shared["dst"][task.extra[0] : task.extra[-1]]
        self._count_guards(plan, records)
        return records

    def _count_guards(self, plan: PhasePlan, records) -> None:
        calls = sum(rec.cond_calls for rec in records)
        if plan.trusted:
            self.guards_skipped += calls
        else:
            self.guard_invocations += calls

    def _read_ahead(self, tasks) -> None:
        """Hand the grid's background reader (if any) the blocks about to
        be consumed, in consumption order; cancels any stale schedule."""
        self.grid.schedule_reads([(task.block, task.partition) for task in tasks])

    def _read_block(self, plan: PhasePlan, arrays: dict, task: PartitionTask) -> dict:
        """Stream one grid block in as the COO kernel's edge arrays."""
        block = self.grid.read_block(task.block, task.partition)
        if block.nbytes:
            plan.io_bytes += block.nbytes
            plan.io_blocks += 1
        if self._supervisor is not None:
            self._supervisor.check_read((task.block, task.partition), block)
        return {**arrays, "src": block.src, "dst": block.dst}

    # ------------------------------------------------------------------
    # fold: records -> next frontier + the phase's EdgeMapStats
    # ------------------------------------------------------------------
    def _fold(self, plan: PhasePlan, frontier: Frontier, density, records) -> Frontier:
        p, keep = plan.num_partitions, plan.per_partition
        part_examined = np.zeros(p, np.int64) if keep else None
        part_touched = np.zeros(p, np.int64) if keep else None
        examined = active_edges = 0
        scanned = plan.scanned
        activated: list[np.ndarray] = []
        for rec in records:
            examined += rec.examined
            active_edges += rec.active_edges
            scanned += rec.scanned
            if keep:
                # the record's arrays are its run's partitions, lowest first
                parts = slice(rec.partition, rec.partition + rec.touched.size)
                part_examined[parts] += rec.part_examined
                part_touched[parts] += rec.touched
            if rec.activated.size:
                activated.append(rec.activated)
        if records and all(rec.all_dst for rec in records):
            # Every run activated all of its ``dst``: the next frontier is the
            # vertices with an in-edge, a constant of the layout (and safe to
            # share between phases: a Frontier is immutable).
            nxt = self._cached(
                "coo-frontier", lambda: Frontier(self.num_vertices, sparse=self.store.coo.dst)
            )
        else:
            if len(activated) != 1:  # a lone record (every sparse phase) needs no copy
                activated = [np.concatenate(activated) if activated else np.empty(0, VID_DTYPE)]
            nxt = Frontier(self.num_vertices, sparse=activated[0])  # the phase's one dedup
        self.stats.edge_maps.append(
            EdgeMapStats(
                layout=plan.layout,
                direction=plan.direction,
                density=density,
                frontier_size=frontier.size,
                active_edges=active_edges,
                examined_edges=examined,
                scanned_vertices=scanned,
                updated_vertices=nxt.size,
                uses_atomics=plan.uses_atomics,
                num_partitions=p,
                partition_examined=part_examined,
                partition_touched_vertices=part_touched,
                io_bytes=plan.io_bytes,
                io_blocks=plan.io_blocks,
            )
        )
        return nxt

    # ------------------------------------------------------------------
    # vertex map
    # ------------------------------------------------------------------
    def vertex_map(self, frontier: Frontier, fn) -> None:
        """Apply ``fn(active_vertex_ids)`` once, for its side effects."""
        self.stats.vertex_maps.append(VertexMapStats(frontier_size=frontier.size))
        if not frontier.is_empty:
            fn(frontier.as_sparse())

    def vertex_filter(self, frontier: Frontier, pred) -> Frontier:
        """Keep the active vertices for which ``pred(ids)`` returns True."""
        self.stats.vertex_maps.append(VertexMapStats(frontier_size=frontier.size))
        if frontier.is_empty:
            return frontier
        ids = frontier.as_sparse()
        keep = np.asarray(pred(ids), dtype=bool)
        if keep.shape != ids.shape:
            raise ValueError("predicate must return one boolean per active vertex")
        return Frontier(self.num_vertices, sparse=ids[keep])
