"""The concurrent execution backend for the partitioned traversal kernels.

The paper's destination-partitioned layouts give every partition task a
disjoint ``[lo, hi)`` destination write range, and the effect-inference
pass (:mod:`repro.analysis.effects`) certifies which operators honour
that contract.  This module turns the proof into wall-clock speed: the
engine's partition loop runs a phase's tasks in-process (the ``serial``
spec — no backend object exists), or hands them to a
:class:`ProcessBackend` as one :class:`~repro.core.plan.PhasePlan` batch.

:class:`ProcessBackend`
    A persistent ``ProcessPoolExecutor`` over
    :mod:`multiprocessing.shared_memory`.  Graph layout arrays are
    published once into named shared-memory segments and cached by the
    workers across phases; per-phase state (the frontier bitmap — none
    when the frontier is every vertex — and the operator's state arrays)
    is published per dispatch.  Workers rebuild
    the operator around shared-memory views, *re-verify the signed
    safety certificate at attach time*, run the very same kernel
    functions (:mod:`repro.core.kernels`) as the serial path, and write
    their results straight into the disjoint ``[lo, hi)`` slices of the
    shared state copies.  The parent merges those slices back in
    schedule order — the declared commutative ``combine`` contract is
    what makes per-slice copy-back equal to any interleaved execution —
    so the result arrays are bit-identical to serial across any worker
    count, partition order and task grain (the trajectory — phase count,
    per-phase statistics — of operators that read what they write follows
    the schedule).  Every failure mode (dead pool, shm attach error,
    unpicklable operator state) raises
    :class:`~repro.errors.BackendError`, and because workers only ever
    touch shared-memory *copies*, the engine's arrays are untouched and
    the batch re-runs serially without rollback.

Which of the two runs is selected by a *spec* string in the one
``kind[:key=value]*`` grammar of :mod:`repro.spec`; :data:`BACKEND_SPEC`
is this module's option table.
"""

from __future__ import annotations

import contextlib
import logging
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import Any

import numpy as np

from ..errors import BackendError
from ..frontier.distinct import sorted_distinct
from ..spec import choice, flag, integer, parse_spec
from . import kernels
from .kernels import KERNEL_FUNCTIONS, cond_guard, kernel_args
from .ops import state_arrays, vertex_length
from .plan import PartitionRecord, PartitionTask, PhasePlan
from .stats import BackendStats

__all__ = ["ProcessBackend", "BACKEND_SPEC", "backend_options"]

log = logging.getLogger(__name__)


def _default_workers() -> int:
    return max(1, min(4, os.cpu_count() or 1))


#: the backend spec table: every kind, and the options it accepts.
#: ``workers`` sizes the pool; ``strict`` refuses (1) or silently
#: serialises (0) uncertified operators; ``start`` is the
#: multiprocessing start method (default: fork, else spawn);
#: ``prefetch`` is the grid read-ahead depth in blocks (0 disables; also
#: on ``serial``, since grid streaming is backend-independent).
BACKEND_SPEC = {
    "serial": {"prefetch": integer(0, minimum=0)},
    "process": {
        "workers": integer(_default_workers(), minimum=1),
        "strict": flag(True),
        "start": choice(None, get_all_start_methods()),
        "prefetch": integer(0, minimum=0),
    },
}

def backend_options(spec: str) -> tuple[str, dict[str, Any]]:
    """``(kind, typed options)`` of a backend spec; the validation behind
    ``EngineOptions.__post_init__``."""
    return parse_spec("backend", BACKEND_SPEC, spec)


# ----------------------------------------------------------------------
# shared-memory plumbing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ArrayRef:
    """A picklable handle to a published shared-memory array."""

    name: str
    dtype: str
    shape: tuple[int, ...]


class _Segment:
    """A parent-owned shared-memory copy of one numpy array."""

    def __init__(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes)
        )
        self.view: np.ndarray = np.ndarray(
            array.shape, array.dtype, buffer=self.shm.buf
        )
        self.view[...] = array
        self.nbytes = int(array.nbytes)

    def ref(self) -> _ArrayRef:
        return _ArrayRef(self.shm.name, self.view.dtype.str, tuple(self.view.shape))

    def release(self) -> None:
        # Drop the exported view first: closing a SharedMemory whose
        # buffer still has live memoryview exports raises BufferError.
        # Unlink before close so the segment never outlives us even if
        # a stray view keeps the mapping pinned a little longer.
        self.view = None
        try:
            self.shm.unlink()
        except OSError:  # already gone (e.g. interpreter teardown races)
            pass
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a live export pins the map
            pass


def _attach_segment(ref: _ArrayRef) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Worker-side attach; returns the handle (keep alive!) and the view."""
    try:
        shm = shared_memory.SharedMemory(name=ref.name)
    except (FileNotFoundError, OSError) as exc:
        raise BackendError(f"cannot attach shm segment {ref.name!r}: {exc}") from exc
    # Attaching re-registers the segment with the resource tracker, but
    # fork/spawn children share the parent's tracker process and its
    # cache is a set, so the duplicate registration is a no-op and the
    # parent's unlink-time unregister cleans up exactly once.  (Worker-
    # side unregister would instead *cancel* the parent's registration
    # and make that unregister fail inside the tracker.)
    view = np.ndarray(ref.shape, np.dtype(ref.dtype), buffer=shm.buf)
    return shm, view


# ----------------------------------------------------------------------
# worker side (module-level: importable under any start method)
# ----------------------------------------------------------------------
#: this worker's attachments, keyed by segment name and kept open for the
#: pool's lifetime (the parent names the retired ones with every dispatch).
_WORKER_SEGMENTS: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
#: operator classes whose certificate this worker already re-verified.
_WORKER_VERIFIED: set[type] = set()


def _worker_array(ref: _ArrayRef) -> np.ndarray:
    entry = _WORKER_SEGMENTS.get(ref.name)
    if entry is None:
        entry = _WORKER_SEGMENTS[ref.name] = _attach_segment(ref)
    return entry[1]


def _worker_verify_operator(cls: type, token: tuple[dict, str]) -> None:
    """Re-verify the operator's safety certificate at attach time.

    Two independent checks: the shipped ``(payload, signature)`` token
    must carry an authentic keyed-blake2b signature naming this exact
    class at level *partition-pure*, and the worker re-derives the
    report for the class it actually unpickled and requires the same
    verdict — so neither a tampered token nor a token/class mismatch can
    smuggle an uncertified operator onto a concurrent schedule.
    """
    if cls in _WORKER_VERIFIED:
        return
    from ..analysis.certificate import operator_report, verify_report_token
    from ..analysis.effects import SafetyLevel

    payload, signature = token
    if not verify_report_token(payload, signature):
        raise BackendError(
            f"operator {cls.__name__}: certificate signature failed verification "
            "at worker attach time"
        )
    name = f"{cls.__module__}:{cls.__qualname__}"
    if payload.get("name") != name:
        raise BackendError(
            f"operator certificate names {payload.get('name')!r} but the worker "
            f"attached {name!r}"
        )
    if payload.get("level") != SafetyLevel.PARTITION_PURE.value:
        raise BackendError(
            f"operator {cls.__name__} is not certified partition-pure "
            f"(certificate level: {payload.get('level')!r})"
        )
    local = operator_report(cls)
    if local.safety is not SafetyLevel.PARTITION_PURE:
        raise BackendError(
            f"operator {cls.__name__}: worker-side re-analysis disagrees with "
            f"the shipped certificate (local level: {local.level})"
        )
    _WORKER_VERIFIED.add(cls)


def _worker_run_chunk(
    opspec: dict,
    kernel: str,
    array_refs: dict[str, _ArrayRef],
    tasks: list[PartitionTask],
) -> list[PartitionRecord]:
    """Execute one chunk of partition tasks inside a worker process."""
    for name in opspec.get("retired", ()):
        entry = _WORKER_SEGMENTS.pop(name, None)
        if entry is not None:
            try:
                entry[0].close()
            except BufferError:  # pragma: no cover - view still exported
                pass
    cls = opspec["class"]
    _worker_verify_operator(cls, opspec["token"])
    op = object.__new__(cls)
    for attr, value in opspec["scalars"].items():
        setattr(op, attr, value)
    for attr, ref in opspec["arrays"].items():
        setattr(op, attr, _worker_array(ref))
    arrays = {key: _worker_array(ref) for key, ref in array_refs.items()}
    cond_fn = cond_guard(opspec["validate"])
    run = getattr(kernels, KERNEL_FUNCTIONS[kernel])
    out: list[PartitionRecord] = []
    for task in tasks:
        rec = run(op, cond_fn, *kernel_args(kernel, arrays, task, opspec["fuse"]))
        # Dedupe before IPC: the frontier constructor dedups anyway
        # (bit-identical), and distinct ids pickle far smaller — and a
        # run that activated all of its ``dst`` sends none: the parent has
        # that slice of the layout.  The records also escape with fresh
        # arrays only, never shm views: sorted_distinct never returns a
        # view of its input, even when an operator handed back a slice of
        # a segment (tests/properties/test_prop_distinct.py holds it to that).
        rec.activated = rec.activated[:0].copy() if rec.all_dst else sorted_distinct(rec.activated)
        out.append(rec)
    return out


class ProcessBackend:
    """Partition tasks on a persistent worker pool over shared memory."""

    kind = "process"

    def __init__(
        self,
        workers: int | None = None,
        start: str | None = None,
        stats: BackendStats | None = None,
    ) -> None:
        self.workers = workers or _default_workers()
        self._start = start
        self.stats = stats if stats is not None else BackendStats(kind=self.kind)
        self._executor: ProcessPoolExecutor | None = None
        #: the pool processes :meth:`_place_workers` last gave a CPU each.
        self._placed: list[int] = []
        #: published layout segments, keyed by ``id(array)``; the
        #: ``_pinned`` dict keeps the arrays alive so ids stay unique.
        self._layouts: dict[int, _Segment] = {}
        self._pinned: dict[int, np.ndarray] = {}
        #: persistent state segments, keyed by ``(scope, attr)`` —
        #: operator-state arrays scoped by operator class, per-phase
        #: frontier arrays scoped ``"batch"`` — published once and
        #: overwritten in place between phases.
        self._state_segments: dict[tuple[str, str], _Segment] = {}
        #: recently retired segment names, shipped with every opspec so
        #: workers drop their cached attachments.
        self._retired_names: deque[str] = deque(maxlen=64)

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            method = self._start or (
                "fork" if "fork" in get_all_start_methods() else "spawn"
            )
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=get_context(method)
                )
            except OSError as exc:
                raise BackendError(f"cannot start worker pool: {exc}") from exc
            self.stats.workers_spawned += self.workers
            log.info(
                "process backend: started %d worker(s) (%s start method)",
                self.workers, method,
            )
        return self._executor

    def _place_workers(self) -> None:
        """Give every pool process a CPU of its own, where there are enough.

        Left to the scheduler, the workers of an idle pool can all wake on
        the parent's CPU and stay stacked there until the periodic balance
        separates them — on a two-vCPU guest that took seconds, during
        which every phase ran serially on one core beside an idle one.
        """
        pids = self.worker_pids()
        if (
            pids == self._placed
            or len(pids) < self.workers
            or not hasattr(os, "sched_setaffinity")
        ):
            return
        self._placed = pids
        cpus = sorted(os.sched_getaffinity(0))
        if len(pids) <= len(cpus):
            for pid, cpu in zip(pids, cpus):
                # A worker that died meanwhile breaks the pool by itself.
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(pid, {cpu})

    def _teardown_executor(self) -> None:
        """Shut the pool down and reap its workers before returning: the
        pool's manager thread reaps them within 5 s, or within 5 s more
        once the workers still alive (stuck in a task) are killed."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        manager = executor._executor_manager_thread
        workers = list((executor._processes or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        if manager is not None:
            manager.join(5.0)
            if manager.is_alive():
                for process in workers:
                    process.kill()
                manager.join(5.0)

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool processes (fault-injection tests)."""
        if self._executor is None:
            return []
        return [p.pid for p in self._executor._processes.values()]

    # ------------------------------------------------------------------
    def _layout_ref(self, array: np.ndarray) -> _ArrayRef:
        key = id(array)
        segment = self._layouts.get(key)
        if segment is None:
            segment = _Segment(array)
            self._layouts[key] = segment
            self._pinned[key] = array
            self.stats.shm_bytes_mapped += segment.nbytes
        return segment.ref()

    def discard_layouts(self) -> None:
        """Drop the cached layout segments (the graph store changed, e.g.
        after the degradation ladder halved the partition count)."""
        for segment in self._layouts.values():
            segment.release()
        self._layouts.clear()
        self._pinned.clear()

    def close(self) -> None:
        """Release the pool and every segment this backend holds."""
        self._teardown_executor()
        self.discard_layouts()
        for key in list(self._state_segments):
            self._retire_state(key)

    # -- persistent state segments -------------------------------------
    def _retire_state(self, key: tuple[str, str]) -> None:
        segment = self._state_segments.pop(key, None)
        if segment is not None:
            self._retired_names.append(segment.shm.name)
            segment.release()

    def _publish_state(self, scope: str, attr: str, value: np.ndarray) -> _Segment:
        """Publish one state array through the persistent-segment registry.

        First publication creates a named segment (counted in
        ``shm_bytes_mapped``); later publications re-use it: a value
        that *is* the segment view (an adopted persistent-state array)
        costs nothing, anything else is copied over the published
        content (``shm_bytes_republished``) — one pass over one array,
        where finding the changed span first read both and was slower
        even when nothing had changed.  Shape or dtype changes retire
        the segment and publish a fresh one.
        """
        key = (scope, attr)
        self.stats.shm_bytes_requested += int(value.nbytes)
        segment = self._state_segments.get(key)
        if segment is not None:
            view = segment.view
            if (
                view is not None
                and view.shape == value.shape
                and view.dtype == value.dtype
            ):
                self.stats.segments_reused += 1
                if view is not value:
                    np.copyto(view, value)
                    self.stats.shm_bytes_republished += segment.nbytes
                return segment
            self._retire_state(key)
        retired = segment is not None
        segment = self._state_segments[key] = _Segment(value)
        self.stats.shm_bytes_mapped += segment.nbytes
        if retired:
            # A re-created segment is a full re-publication, not a first
            # mapping — charge it to the republish counter too.
            self.stats.shm_bytes_republished += segment.nbytes
        return segment

    def _chunks(self, tasks: list[PartitionTask]) -> list[list[PartitionTask]]:
        # Two chunks per worker: cheap dynamic load balance without
        # drowning small batches in per-future overhead.
        size = max(1, -(-len(tasks) // (self.workers * 2)))
        return [tasks[i : i + size] for i in range(0, len(tasks), size)]

    # ------------------------------------------------------------------
    def run_partitions(self, plan, op, tasks, num_vertices) -> list[PartitionRecord]:
        try:
            return self._dispatch(plan, op, tasks, num_vertices)
        except BackendError:
            self._teardown_executor()
            raise
        except BrokenProcessPool as exc:
            self._teardown_executor()
            raise BackendError(f"worker pool died: {exc}") from exc
        except Exception as exc:
            # Anything else that escapes the dispatch — a pickling
            # failure, an shm exhaustion OSError, an operator exception
            # inside a worker — is recoverable the same way: the
            # engine's arrays are untouched (workers write copies), so
            # the serial re-run either succeeds or reproduces a genuine
            # operator bug in-process where it is debuggable.
            self._teardown_executor()
            raise BackendError(
                f"process backend dispatch failed: {type(exc).__name__}: {exc}"
            ) from exc

    def _dispatch(self, plan, op, tasks, num_vertices) -> list[PartitionRecord]:
        from ..analysis.certificate import signed_report_token

        executor = self._ensure_executor()
        cls = type(op)
        op_scope = f"{cls.__module__}:{cls.__qualname__}"
        adopt = bool(getattr(cls, "persistent_state", False))
        array_refs: dict[str, _ArrayRef] = {
            key: self._layout_ref(arr) for key, arr in plan.shared.items()
        }
        for key, arr in plan.transient.items():
            array_refs[key] = self._publish_state("batch", key, arr).ref()
        arrays = state_arrays(op)
        scalars = {attr: value for attr, value in vars(op).items() if attr not in arrays}
        state: dict[str, tuple[_Segment, np.ndarray]] = {}
        for attr, value in arrays.items():
            segment = self._publish_state(op_scope, attr, value)
            if adopt and value is not segment.view:
                # Adopt: the operator's state attribute *becomes*
                # the shared-memory view, so the driver's in-place
                # updates land directly in the published segment
                # and later publishes are identity no-ops.
                setattr(op, attr, segment.view)
                value = segment.view
            state[attr] = (segment, value)
        opspec = {
            "class": cls,
            "scalars": scalars,
            "arrays": {
                attr: seg.ref() for attr, (seg, _) in state.items()
            },
            "token": signed_report_token(cls),
            "validate": not plan.trusted,
            "fuse": plan.fused,
            "retired": tuple(self._retired_names),
        }
        # The certificate's write set names the attributes the operator
        # may scatter into (None: analysis impossible, treat all as written).
        written = _written_attrs(cls)
        # Adopted write-set slices live in shared memory, so a failed
        # batch would leave partial worker writes behind where the old
        # copy-out design left the engine's arrays untouched.  Back them
        # up parent-side and restore on any failure, preserving the
        # "in-process re-run starts pristine" fallback contract.
        backup = {
            attr: segment.view.copy()
            for attr, (segment, original) in state.items()
            if original is segment.view and (written is None or attr in written)
        }
        try:
            futures = [
                executor.submit(_worker_run_chunk, opspec, plan.kernel, array_refs, chunk)
                for chunk in self._chunks(tasks)
            ]
            # The pool forks at its first submit: only now are there pids.
            self._place_workers()
            records: dict[int, PartitionRecord] = {}
            for future in futures:
                for rec in future.result():
                    records[rec.partition] = rec
            missing = [t.partition for t in tasks if t.partition not in records]
            if missing:
                raise BackendError(f"workers returned no record for {missing}")
            self._merge_state(tasks, num_vertices, written, state)
            self.stats.batches_dispatched += 1
            self.stats.partitions_dispatched += sum(t.num_partitions for t in tasks)
            return [records[t.partition] for t in tasks]
        except BaseException:
            # Un-adopt before the error escapes: the engine responds to
            # a backend failure by closing this backend (releasing every
            # segment), so an operator left pointing at segment views
            # would read unmapped memory on the in-process re-run.  Written
            # attributes get their pristine pre-dispatch backup; read-only
            # ones a plain copy of the (unchanged) published content.
            for attr, (segment, original) in state.items():
                if original is not segment.view or segment.view is None:
                    continue
                saved = backup.get(attr)
                setattr(
                    op,
                    attr,
                    saved if saved is not None else segment.view.copy(),
                )
            raise

    @staticmethod
    def _merge_state(
        tasks: list[PartitionTask],
        num_vertices: int,
        written: set[str] | None,
        state: dict[str, tuple[_Segment, np.ndarray]],
    ) -> None:
        """Fold the workers' shared-memory writes back into the operator.

        Each task's writes are confined to its disjoint ``[lo, hi)``
        slice of the write-set arrays (that *is* the partition-pure
        contract the workers re-verified), so copying each task's slice
        commits the phase regardless of the order the tasks ran in — the
        ``combine`` merge degenerates to disjoint assignment.
        """
        for attr, (segment, original) in state.items():
            if original is segment.view:
                # Adopted persistent state: the operator attribute *is*
                # the shared segment, so the workers' disjoint-slice
                # writes are already committed in place.
                continue
            if written is not None and attr not in written:
                continue
            if vertex_length(original, num_vertices):
                for task in tasks:
                    original[task.lo : task.hi] = segment.view[task.lo : task.hi]
            else:
                # Non-vertex-length writable state cannot be certified
                # partition-pure, so this branch is unreachable for
                # admitted operators; kept as a conservative whole-copy.
                original[...] = segment.view


def _written_attrs(cls: type) -> set[str] | None:
    """Attribute names in ``cls``'s certified write set, or ``None`` if
    analysis is impossible (then every state array counts as written)."""
    try:
        from ..analysis.certificate import operator_report

        return {attr for attr, _ in operator_report(cls).write_sets}
    except Exception:  # pragma: no cover - analysis failure fallback
        return None
