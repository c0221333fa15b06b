"""Outside-in tracing: spans around the public entry points of each layer.

Nothing under ``src/`` knows it is being traced.  ``Tracer.install``
replaces the named functions and methods with wrappers that record a
span (name, start, end, parent) in memory; ``uninstall`` puts the
originals back.  A layer's *self time* is its spans' duration minus the
part their child spans cover, so the layers of one pass add up to the
pass.  Spans are written as Chrome trace-event JSON when the workload
ends (open in ``chrome://tracing`` or Perfetto).

Named ``tracing`` rather than ``trace`` so that the script directory on
``sys.path`` does not shadow the standard library's ``trace`` module.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

#: the most events a trace file holds; a ``mixed_cc_road`` pass alone
#: records about 300 k spans, and a 100 MB JSON helps nobody.
MAX_TRACE_EVENTS = 100_000


class Tracer:
    """Span recorder plus the monkeypatches that feed it."""

    def __init__(self) -> None:
        # One span is one entry in each of four parallel columns, in start
        # order.  Flat arrays, not a list of records: a pass records 10^5
        # spans, and that many live containers make every garbage
        # collection of the traced program slower -- tracing overhead
        # that would not be the wrappers' own.
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        #: work counted where it happens (edges gathered, bytes saved).
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    def __len__(self) -> int:
        return len(self.names)

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` (a class or module member) with a traced twin.

        ``measure(counts, args, result)`` may add to :attr:`counts`.
        Calls from other threads (the grid's read-ahead reader) pass
        through untraced: the span stack belongs to the main thread.
        """
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts, main = self._stack, self.counts, self._thread
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if measure is not None:
                measure(counts, args, result)
            return result

        setattr(owner, attr, type(raw)(traced) if fn is not raw else traced)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    def install(self, operator_paths, *, backend_only: bool) -> None:
        """Wrap every layer boundary the per-layer metrics are read from.

        ``backend_only`` is the process row: kernels and operators run in
        the workers, and the workers' certificate check must see
        untouched classes, so only the engine's entry point and the
        pool dispatch are wrapped.
        """
        import importlib

        from repro.core import backend, engine, kernels
        from repro.core.engine import Engine
        from repro.frontier.frontier import Frontier
        from repro.layout.grid import GridStore
        from repro.resilience import CheckpointManager, PhaseJournal, Watchdog

        self.wrap(Engine, "edge_map", "engine.edge_map")
        self.wrap(Engine, "vertex_map", "engine.vertex_map")
        self.wrap(backend.ProcessBackend, "run_partitions", "backend.run_partitions")
        if backend_only:
            return
        for attr, name in [
            ("run_coo_partition", "kernels.coo"),
            ("run_csc_partition", "kernels.csc"),
            ("run_csr_sparse_partition", "kernels.csr_sparse"),
        ]:
            self.wrap(engine, attr, name)
        for module in (engine, kernels):
            self.wrap(module, "gather_adjacency", "gather.adjacency", _count_gathered)
        self.wrap(engine, "classify_frontier", "frontier.classify")
        self.wrap(Frontier, "as_sparse", "frontier.as_sparse")
        self.wrap(Frontier, "as_bitmap", "frontier.as_bitmap")
        for path in operator_paths:
            module_name, _, class_name = path.partition(":")
            cls = getattr(importlib.import_module(module_name), class_name)
            self.wrap(cls, "process_edges", "ops.process_edges")
        self.wrap(GridStore, "build", "grid.build")
        self.wrap(GridStore, "read_block", "grid.read_block")
        for cls, layer in ((PhaseJournal, "journal"), (Watchdog, "watchdog")):
            for attr, member in vars(cls).items():
                if callable(member) and not attr.startswith("_"):
                    self.wrap(cls, attr, f"{layer}.{attr}")
        self.wrap(CheckpointManager, "save", "checkpoint.save", _count_saved)

    # ------------------------------------------------------------------
    def totals(self, first: int = 0, last: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` over spans
        ``[first, last)``, plus a ``"<root>"`` entry summing parentless spans."""
        window = slice(first, last)
        names = self.names[window]
        duration = np.array(self.ends[window]) - np.array(self.starts[window])
        parent = np.array(self.parents[window], dtype=np.int64) - first
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        distinct = sorted(set(names))
        code_of = {name: code for code, name in enumerate(distinct)}
        codes = np.fromiter((code_of[n] for n in names), dtype=np.int64, count=len(names))
        calls = np.bincount(codes, minlength=len(distinct))
        total = np.bincount(codes, weights=duration, minlength=len(distinct))
        own = np.bincount(codes, weights=duration - covered, minlength=len(distinct))
        out = {
            name: {"calls": int(calls[c]), "total_s": float(total[c]), "self_s": float(own[c])}
            for c, name in enumerate(distinct)
        }
        root = float(duration[~has_parent].sum())
        out["<root>"] = {"calls": 0, "total_s": root, "self_s": root}
        return out

    def write_chrome_trace(self, path: Path, workload: str) -> None:
        """Write the first ``MAX_TRACE_EVENTS`` spans as trace events."""
        count = min(len(self), MAX_TRACE_EVENTS)
        origin = self.starts[0] if count else 0.0
        events = [
            {
                "name": self.names[i],
                "ph": "X",
                "ts": (self.starts[i] - origin) * 1e6,
                "dur": (self.ends[i] - self.starts[i]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"parent": self.parents[i], "workload": workload},
            }
            for i in range(count)
        ]
        document = {
            "traceEvents": events,
            "otherData": {"workload": workload, "spans_recorded": len(self)},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))


def _count_gathered(counts: Counter, args, result) -> None:
    counts["gather.edges"] += int(result[1].size)


def _count_saved(counts: Counter, args, result) -> None:
    arrays = args[3]  # CheckpointManager.save(self, name, step, arrays)
    counts["checkpoint.bytes"] += sum(int(a.nbytes) for a in arrays.values())
