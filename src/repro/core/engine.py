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
   blocks).  A sparse CSR phase stops here: one gather and one kernel
   call in this thread build its next frontier and its statistics
   (:meth:`Engine._sparse_round`; no task, no fold, nothing journalled).
   A partitioned phase becomes a :class:`PhasePlan`: a kernel name, a
   list of tasks over disjoint destination ranges, the arrays they read
   and the few statistics fields that depend on the layout.
2. **run** — one loop executes the plan's tasks
   (:func:`~repro.core.kernels.kernel_args` → ``run_*_partition``): in this
   thread, or, for operators declared edge-local, in contiguous blocks on
   the ``options.backend`` thread pool, every block writing its
   destination ranges of the live arrays in place; the same loop either
   way, so the results are bit-identical.  A task is a run of adjacent
   partitions about :data:`~repro.core.plan.TASK_EDGES` edges long — the
   kernel hoists the frontier filter, ``cond``, gather and compression
   over the run and hands the operator one batch per partition in order,
   or one for the run (``PhasePlan.fused``), wherever the operator declares
   that unobservable (:meth:`Engine._task_edges`); everywhere else it is a run
   of one.  A phase whose frontier is every vertex has no filter to apply,
   so its plan carries no bitmap and the kernels skip the frontier work
   (:func:`_frontier_filter`).  A weighted operator's COO tasks and
   sparse rounds read their edge weights from a per-store cache
   (:meth:`Engine._weights`).
3. **fold** — the tasks' records become the next frontier (looked up
   per store, not folded, when every run or grid block activated all of
   its ``dst``)
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
from .backend import ThreadBackend, backend_options
from .gather import gather_adjacency, narrow_layout, slice_lengths
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
        #: were skipped because the operator declares its writes.
        self.guard_invocations = 0
        self.guards_skipped = 0
        #: what depends only on the store and the options (task lists,
        #: the partitioned CSR); dropped when the store is rebuilt.
        self._per_store: dict[object, object] = {}
        # The spec is validated by EngineOptions; resolve its kind and
        # typed options once.  The backend object (and its thread pool)
        # is built lazily on the first concurrent batch, so engines
        # that never leave the in-process path never start a thread.
        self._backend_kind, self._backend_conf = backend_options(self.options.backend)
        #: cumulative backend counters (engine lifetime; snapshots are
        #: attached to each detached :class:`RunStats`).
        self.backend_stats = BackendStats(
            spec=self.options.backend, kind=self._backend_kind
        )
        self._backend_obj: ThreadBackend | None = None
        self._backend_finalizer = None
        #: whether the current edge-map phase may run concurrently
        #: (edge-local operator + non-serial backend); set at admission.
        self._phase_concurrent = False
        self._undeclared_noted: set[type] = set()

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
        the heap).  Threaded blocks read the same array."""
        key = ("weights", layout)
        if self._per_store.get(key, (None,))[0] != weight_fn:
            self._per_store.pop(key, None)  # the old array goes before the new one
            store, w = self.store, np.empty(self.num_edges, VAL_DTYPE)
            for a in range(0, w.size, TASK_EDGES):
                b = min(a + TASK_EDGES, w.size)
                if layout == "coo":
                    src, dst = store.coo.src[a:b], store.coo.dst[a:b]
                else:  # the sources whose CSR slices overlap [a, b), repeated
                    index = store.csr.index
                    lo, hi = index.searchsorted(a, "right") - 1, index.searchsorted(b)
                    counts = np.diff(index[lo : hi + 1].clip(a, b))
                    src = np.repeat(np.arange(lo, hi, dtype=VID_DTYPE), counts)
                    dst = store.csr.neighbors[a:b]
                w[a:b] = weight_fn(src, dst)
            self._per_store[key] = (weight_fn, w)
        return self._per_store[key][1]

    def _narrowed(self, layout: str) -> tuple[np.ndarray, np.ndarray]:
        """The store's ``"csr"`` or ``"csc"`` in the gather's one width."""
        g = self.store.csr if layout == "csr" else self.store.csc.csc
        return self._cached(f"{layout}-narrowed", lambda: narrow_layout(g.index, g.neighbors))

    def _rebuild_store(self, num_partitions: int) -> None:
        """Re-derive every layout at a new partition count (the
        degradation ladder's halving rung)."""
        self.store = GraphStore.build(
            self.store.edges,
            num_partitions=num_partitions,
            edge_order=self.store.coo.edge_order,
            balance=self.store.balance,
        )
        self._per_store.clear()

    # ------------------------------------------------------------------
    # execution backend lifecycle
    # ------------------------------------------------------------------
    def _execution_backend(self) -> ThreadBackend:
        if self._backend_obj is None:
            self._backend_obj = ThreadBackend(
                self._backend_conf["workers"], stats=self.backend_stats
            )
            # Engines are created freely throughout the test suite and
            # the bench harness; tie the pool's lifetime to the engine's
            # so forgotten engines cannot strand pool threads.
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
        """Join the execution backend's thread pool, if it was started,
        and drop the per-store caches and the grid's resident blocks (an
        engine used again rebuilds and re-reads them)."""
        self._per_store.clear()
        if self.grid is not None:
            self.grid.release()
        self._close_backend()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _note_backend_fallback(self, exc: BackendError) -> None:
        """Demote the concurrent backend to the in-process path.

        The backend raises :class:`~repro.errors.BackendError` only when
        its pool cannot start a thread for a batch's first block, so no
        task of the batch has run and running it here is its first run.
        Any other failure of a block is the operator's own, raised as
        serial execution raises it.
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
    # the operator's declaration: what the runtime guards may skip
    # ------------------------------------------------------------------
    @staticmethod
    def _op_trusted(op: EdgeOperator) -> bool:
        """Whether ``op``'s class declares what it writes
        (:attr:`~repro.core.ops.EdgeOperator.writes`): its ``cond`` then
        returns ``None`` or a boolean mask parallel to its argument, so the
        dynamic validation is skipped — bit-identical either way."""
        return type(op).writes is not None

    def _task_edges(self, op: EdgeOperator, trusted: bool) -> tuple[int, bool]:
        """The edge target of this phase's tasks (0 keeps one partition
        per task), and whether a run is one operator batch.

        A longer run evaluates ``cond`` for all its partitions before the
        operator sees the first, so runs are built only where that cannot
        be observed — the operator declares its writes (each only at
        ``dst``, and ``cond`` reads them only at the ids it is handed) —
        and where nothing addresses single partitions: the supervisor's
        journal, write-set rollback, watchdog deadlines and fault plans
        all key on partition ids.  Its batches merge where the operator
        declares that unobservable too
        (:attr:`~repro.core.ops.EdgeOperator.edge_local`).
        """
        if not trusted or self._supervisor is not None:
            return 0, False
        workers = self._backend_conf["workers"] if self._phase_concurrent else 0
        return task_edges(self.num_edges, workers), type(op).edge_local

    def _admit_backend(self, op: EdgeOperator) -> bool:
        """Whether this phase may run on the concurrent backend.

        Its blocks write the live arrays in place, so only an operator no
        task of which can read another's writes may: one that declares its
        writes and is edge-local (:attr:`~repro.core.ops.EdgeOperator.edge_local`).
        Other declared operators run in-process (CC and BF read at ``src``
        what they write; BFS and BC's are not edge-local either).  Strict
        (default) non-serial backends *refuse* operators that declare no
        writes; ``strict=0`` quietly keeps them in-process (logged once per
        class) so whole test/CI matrices can run under
        ``REPRO_BACKEND=threads:...`` without declaring every ad-hoc operator.
        """
        if self._backend_kind == "serial":
            return False
        if self._op_trusted(op):
            return type(op).edge_local
        spec, name = self.options.backend, type(op).__name__
        if self._backend_conf["strict"]:
            raise ValidationError(
                f"backend {spec!r} requested but {name} declares no `writes` "
                f"(EdgeOperator.writes: the state arrays it writes, each only at "
                f"dst) — declare them, or use a ':strict=0' backend spec to run "
                f"undeclared operators on the serial path"
            )
        if type(op) not in self._undeclared_noted:
            self._undeclared_noted.add(type(op))
            self.resilience_log.append(
                f"backend {spec!r}: {name} declares no writes; running it on the serial path"
            )
            log.info("backend %r: %s declares no writes; running serially", spec, name)
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
        return self._supervisor.edge_map(frontier, op)

    def attach_grid(self, grid) -> None:
        """Switch this engine to out-of-core grid execution.

        All subsequent edge-maps stream ``grid``'s blocks under its
        memory budget instead of traversing the in-RAM layouts, each block
        read in the engine's thread as its task comes up.
        """
        self.grid = grid
        # stale (a count of another grid is a wrong ``touched``) or unused now
        for key in ("grid", "grid-distinct", ("weights", "coo"), ("weights", "csr")):
            self._per_store.pop(key, None)
        self.resilience_log.append(
            f"grid execution attached: {grid.num_stripes}x{grid.num_stripes} "
            f"blocks, {grid.total_bytes()} B on disk, budget "
            f"{grid.budget.limit_bytes or 'unlimited'}"
        )

    def _run_phase(self, frontier: Frontier, op: EdgeOperator) -> Frontier:
        """One attempt at one edge-map phase: classify, then a sparse round or
        plan, run, fold.  Sparse ids (no grid) are classified by their CSR slice
        lengths, which a sparse round's gather reuses; only a partial bitmap
        reads ``out_degrees``."""
        lengths = degrees = None
        grid, options = self.grid, self.options
        if frontier.size < frontier.num_vertices:
            if frontier.has_sparse and grid is None:
                index = self._narrowed("csr")[0]
                lengths = slice_lengths(index, frontier.as_sparse().astype(index.dtype, copy=False))
            else:
                degrees = self.store.out_degrees
        density = classify_frontier(frontier, degrees, self.num_edges, options.thresholds, lengths)
        sparse_layout = options.forced_layout or options.sparse_layout
        if density is DensityClass.SPARSE and grid is None and sparse_layout == "csr":
            return self._sparse_round(frontier, op, lengths)
        plan = self._plan(frontier, density, op)
        return self._fold(plan, frontier, density, self._run_plan(plan, op))

    def _sparse_round(self, frontier: Frontier, op: EdgeOperator, lengths) -> Frontier:
        """Sparse: forward traversal of the unpartitioned CSR as one kernel
        call in this thread, with no plan, task or fold: per-partition work
        on a small frontier is pure overhead (§III.A.1), and nothing
        journals a phase of one task.  The frontier's out-adjacency and a
        weighted operator's CSR weights are gathered in one compiled copy at
        the slice ``lengths`` the classification read (``None``: read here).
        Gather and kernel resolve in this module's namespace at call time."""
        index, neighbors = self._narrowed("csr")
        active = frontier.as_sparse().astype(index.dtype, copy=False)
        weights = None if op.weight_fn is None else self._weights("csr", op.weight_fn)
        src, dst, w = gather_adjacency(index, neighbors, active, weights, lengths=lengths)
        trusted, n = self._op_trusted(op), self.num_vertices
        rec = run_csr_sparse_partition(op, cond_guard(not trusted), src, dst, w, n)
        if trusted:
            self.guards_skipped += rec.cond_calls
        else:
            self.guard_invocations += rec.cond_calls
        nxt = Frontier(n, sparse=rec.activated)  # the phase's one dedup
        self.stats.edge_maps.append(EdgeMapStats(  # positional: a frozen init's keywords cost 2x
            "csr", "forward", DensityClass.SPARSE, frontier.size, rec.active_edges,
            rec.examined, int(active.size), nxt.size, self.options.num_threads > 1, 1,
        ))
        return nxt

    # ------------------------------------------------------------------
    # plan: one small description per layout
    # ------------------------------------------------------------------
    def _plan(self, frontier: Frontier, density: DensityClass, op: EdgeOperator) -> PhasePlan:
        """Algorithm 2's layout decision for a partitioned phase, as a
        :class:`PhasePlan`."""
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
            else:
                plan = build(frontier)
        plan.trusted, plan.fused = trusted, fused
        return plan

    def _plan_csc(self, frontier: Frontier, target: int) -> PhasePlan:
        """Medium-dense: backward traversal of the ranged CSC, narrowed."""
        csc, ranges = self.store.csc.csc, self.store.csc.partition
        index, neighbors = self._narrowed("csc")
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
            arrays={"index": index, "neighbors": neighbors, **_frontier_filter(frontier)},
        )

    def _plan_coo(self, frontier: Frontier, target: int) -> PhasePlan:
        """Dense: streaming traversal of the partitioned COO."""
        coo = self.store.coo
        arrays = {"src": coo.src, "dst": coo.dst, **_frontier_filter(frontier)}
        if "bitmap" not in arrays:
            # With every edge live a partition's touched vertices are its
            # distinct destinations: a constant of the layout.
            arrays["distinct"] = self._cached(
                "coo-distinct",
                lambda: count_distinct_between(coo.dst, coo.partition.boundaries),
            )
        return PhasePlan(
            "coo", "forward", "coo",
            self._cached(("coo", target), lambda: coo_tasks(coo, self.options, target)),
            num_partitions=coo.num_partitions,
            uses_atomics=coo.num_partitions < self.options.num_threads,
            arrays=arrays,
        )

    def _plan_pcsr(self, frontier: Frontier) -> PhasePlan:
        """Forced: the partitioned CSR (Figure 5 layout comparison)."""
        tasks, shared = self._cached(
            "pcsr",
            lambda: pcsr_layout(self.store.build_partitioned_csr(), self.options),
        )
        arrays = {**shared, **_frontier_filter(frontier)}
        if "bitmap" in arrays:
            # A sparse frontier is binary-searched in each partition's
            # stored slots instead of scanned through the bitmap.
            arrays["active_ids"] = frontier.as_sparse()
        return PhasePlan(
            "pcsr", "forward", "pcsr", tasks,
            num_partitions=len(tasks),
            uses_atomics=len(tasks) < self.options.num_threads,
            arrays=arrays,
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
        arrays = _frontier_filter(frontier)
        tasks = blocks
        if arrays:
            bitmap = arrays["bitmap"]
            active = [bool(bitmap[lo:hi].any()) for lo, hi in ranges]
            tasks = [task for task in blocks if active[task.block]]
            grid.stats.blocks_skipped += len(blocks) - len(tasks)
        return PhasePlan(
            "grid", "forward", "coo", tasks,
            num_partitions=grid.num_stripes,
            uses_atomics=False,
            arrays=arrays,
        )

    # ------------------------------------------------------------------
    # run: the one task loop
    # ------------------------------------------------------------------
    def _run_plan(self, plan: PhasePlan, op: EdgeOperator) -> list[PartitionRecord]:
        """Run ``plan``'s tasks: as one batch of blocks on the concurrent
        backend when the phase was admitted, else here, one after another
        (a grid block is read as its task comes up).  With a supervisor,
        the tasks go through its replay-or-execute-then-commit routine."""
        supervisor, arrays = self._supervisor, plan.arrays
        if plan.layout == "coo" and op.weight_fn is not None:
            arrays = {**arrays, "w": self._weights("coo", op.weight_fn)}
        loop = partial(self._execute, plan, arrays, op)
        if self._phase_concurrent and plan.layout != "grid" and len(plan.tasks) > 1:
            run = partial(
                self._counted, plan, partial(self._execution_backend().run_partitions, loop)
            )
            try:
                if supervisor is None:
                    return run(plan.tasks)
                return supervisor.run_tasks(op, plan.tasks, run, concurrent=True)
            except BackendError as exc:
                # No thread could be started: nothing ran, the batch runs here.
                self._note_backend_fallback(exc)
        run = partial(self._counted, plan, loop)
        if supervisor is None:
            return run(plan.tasks)
        return supervisor.run_tasks(op, plan.tasks, run)

    def _execute(self, plan: PhasePlan, arrays: dict, op: EdgeOperator, tasks):
        """Run ``tasks`` one after another in the calling thread.  The
        kernel is looked up in this module's namespace on every call, so a
        patched binding is used."""
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
        return records

    def _counted(self, plan: PhasePlan, run, tasks):
        """``run(tasks)``, its records' guards folded into the engine's
        counters here, in the engine's thread, once per call."""
        records = run(tasks)
        calls = sum(rec.cond_calls for rec in records)
        if plan.trusted:
            self.guards_skipped += calls
        else:
            self.guard_invocations += calls
        return records

    def _read_block(self, plan: PhasePlan, arrays: dict, task: PartitionTask) -> dict:
        """Stream one grid block in as the COO kernel's edge arrays.  Without
        a bitmap they carry the block's distinct destinations too: a constant
        of the grid, counted the first time such a phase reads the block."""
        block = self.grid.read_block(task.block, task.partition)
        if block.nbytes:
            plan.io_bytes += block.nbytes
            plan.io_blocks += 1
        if self._supervisor is not None:
            self._supervisor.check_read((task.block, task.partition), block)
        read = {**arrays, "src": block.src, "dst": block.dst}
        if "bitmap" not in arrays:
            p, i, j = self.grid.num_stripes, task.block, task.partition
            counts = self._cached("grid-distinct", lambda: np.full((p, p), -1, np.int64))
            if counts[i, j] < 0:
                counts[i, j] = count_distinct_between(block.dst, task.cuts)[0]
            read["distinct"] = counts[i]  # the kernel reads entry j
        return read

    # ------------------------------------------------------------------
    # fold: records -> next frontier + the phase's EdgeMapStats
    # ------------------------------------------------------------------
    def _fold(self, plan: PhasePlan, frontier: Frontier, density, records) -> Frontier:
        p = plan.num_partitions
        part_examined, part_touched = np.zeros(p, np.int64), np.zeros(p, np.int64)
        examined = active_edges = scanned = 0
        activated: list[np.ndarray] = []
        for rec in records:
            examined += rec.examined
            active_edges += rec.active_edges
            scanned += rec.scanned
            # the record's arrays are its run's partitions, lowest first
            parts = slice(rec.partition, rec.partition + rec.touched.size)
            part_examined[parts] += rec.part_examined
            part_touched[parts] += rec.touched
            if rec.activated.size:
                activated.append(rec.activated)
        if records and all(rec.all_dst for rec in records):
            # Every run activated all of its ``dst``: the next frontier is the
            # vertices with an in-edge, a constant of the store whichever
            # layout or grid streamed the edges (and safe to share between
            # phases: a Frontier is immutable).
            nxt = self._cached(
                "in-edge-frontier",
                lambda: Frontier(self.num_vertices, sparse=np.flatnonzero(self.store.in_degrees)),
            )
        else:
            if len(activated) != 1:  # a lone record needs no copy
                activated = [np.concatenate(activated) if activated else np.empty(0, VID_DTYPE)]
            nxt = Frontier(self.num_vertices, sparse=activated[0])  # the phase's one dedup
        self.stats.edge_maps.append(EdgeMapStats(  # positional: a frozen init's keywords cost 2x
            plan.layout, plan.direction, density, frontier.size, active_edges, examined,
            scanned, nxt.size, plan.uses_atomics, p, part_examined, part_touched,
            plan.io_bytes, plan.io_blocks,
        ))
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
