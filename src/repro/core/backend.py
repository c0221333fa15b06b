"""The concurrent execution backend: the engine's task loop on a thread pool.

The paper's destination-partitioned layouts give every partition task a
disjoint ``[lo, hi)`` destination write range, and its Cilk workers
each own such ranges and write them in place, with no atomics.  This
module does the same with threads.  The engine's partition loop runs a
phase's tasks in-process (the ``serial`` spec — no backend object
exists), or, for an admitted phase, hands that very loop and the tasks
to :meth:`ThreadBackend.run_partitions`, which cuts the tasks into one
contiguous block per worker, runs every block through the loop on a
persistent ``ThreadPoolExecutor`` and returns the records in task order.

Tasks write the operator's live arrays in place: nothing is copied,
published or merged.  The engine admits a phase only for an operator the
certificate proves edge-local
(:attr:`~repro.analysis.certificate.OperatorReport.edge_local`):
partition-pure, and no attribute it writes is read outside ``dst``.  So no
task reads what another task writes, and the result arrays and every
statistic are bit-identical to serial under any schedule.  The dense
bodies (``coo_matvec``, fancy indexing, ``ufunc.at``) are compiled calls
that release the GIL, so the blocks really do run side by side.

An exception inside a block is re-raised only once every block of the
batch has finished: the earliest failing block's, which is the exception
serial execution raises, with no thread still writing.  A thread pool has
no worker that can die alone, so there is no serial re-run; the one
:class:`~repro.errors.BackendError` is a pool that cannot start a thread
for the batch's first block, when nothing has run.

Which of the two runs is selected by a *spec* string in the one
``kind[:key=value]*`` grammar of :mod:`repro.spec`; :data:`BACKEND_SPEC`
is this module's option table:
``serial`` or ``threads[:workers=N][:strict=0|1]``.

Three shims keep the ``benchmarks/e2e`` harness, which names the old
process backend, working until its next change (ROADMAP item 1(a))
deletes them: the ``process`` kind parses to the ``threads`` options,
:data:`ProcessBackend` is an alias of :class:`ThreadBackend`, and the
``BackendStats.shm_*`` counters stay, always 0.  A fourth sits in
:data:`BACKEND_SPEC`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Callable

from ..errors import BackendError
from ..spec import flag, integer, parse_spec
from .plan import PartitionRecord, PartitionTask
from .stats import BackendStats

__all__ = ["ThreadBackend", "ProcessBackend", "BACKEND_SPEC", "backend_options"]


def _default_workers() -> int:
    return max(1, min(4, os.cpu_count() or 1))


_THREADS = {
    "workers": integer(_default_workers(), minimum=1),
    "strict": flag(True),
}

#: the backend spec table: every kind, and the options it accepts.
#: ``workers`` sizes the pool; ``strict`` refuses (1) or silently
#: serialises (0) operators that are not certified partition-pure.
#: ``process`` is the ``threads`` table under its old name (a shim, see
#: the module docstring).  ``serial``'s ``prefetch`` is parsed and does
#: nothing, since grid blocks are read in the engine's thread: a shim for
#: the benchmark's ``spill_rmat`` row (``serial:prefetch=2``) until ROADMAP
#: item 1(a) drops it from that row; then this key goes.
BACKEND_SPEC = {
    "serial": {"prefetch": integer(0, minimum=0)},
    "threads": _THREADS,
    "process": _THREADS,
}


def backend_options(spec: str) -> tuple[str, dict[str, Any]]:
    """``(kind, typed options)`` of a backend spec; the validation behind
    ``EngineOptions.__post_init__``."""
    return parse_spec("backend", BACKEND_SPEC, spec)


class ThreadBackend:
    """Blocks of partition tasks on a persistent thread pool."""

    def __init__(self, workers: int | None = None, stats: BackendStats | None = None) -> None:
        self.workers = workers or _default_workers()
        self.stats = stats if stats is not None else BackendStats(kind="threads")
        #: started on the first batch, so an engine that never runs one
        #: never starts a thread.
        self._pool: ThreadPoolExecutor | None = None

    def run_partitions(
        self,
        run: Callable[[list[PartitionTask]], list[PartitionRecord]],
        tasks: list[PartitionTask],
    ) -> list[PartitionRecord]:
        """``run(block)`` for contiguous blocks of ``tasks``, about
        ``len(tasks) / workers`` each, concurrently; their records in task
        order.  Returns, or raises, only once every block has finished."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.workers, thread_name_prefix="repro-backend")
            # The pool adds a thread only when none is idle: each new one waits at
            # a barrier until all ``workers`` run, before the first block.
            started = threading.Barrier(self.workers)
            try:
                wait([self._pool.submit(started.wait) for _ in range(self.workers)])
            except RuntimeError as exc:  # no thread could be started
                started.abort()
                self.close()
                raise BackendError(f"cannot start a worker thread: {exc}") from exc
            self.stats.workers_spawned += self.workers
        size = -(-len(tasks) // self.workers)
        futures = []
        try:
            for i in range(0, len(tasks), size):
                futures.append(self._pool.submit(run, tasks[i : i + size]))
        finally:
            wait(futures)
        records = [rec for future in futures for rec in future.result()]
        self.stats.batches_dispatched += 1
        self.stats.partitions_dispatched += sum(task.num_partitions for task in tasks)
        return records

    def close(self) -> None:
        """Join the pool's threads; the backend starts a new pool if used again."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


#: the old name (a shim, see the module docstring).
ProcessBackend = ThreadBackend
