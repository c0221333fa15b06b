"""Per-layer metrics: their names, and how a traced run fills them in.

``PER_LAYER`` is the one list of per-layer metrics; ``BENCHMARK.json``
repeats it and the smoke test holds the two together.  A layer is a
module of ``src/repro``; README.md says which end-to-end metric on which
workload each one should move.  Every traced run reports every metric:
one that does not apply to the workload (``grid.*`` off the spill row,
``locality.*`` off the P=1 row) reads 0, which is itself the prediction
"this layer does nothing here".

Counts are per pass and repeat exactly from pass to pass; times are the
mean of the two traced passes in calibrated seconds.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from calibrate import calibrate, calibrated
from tracing import Tracer
from workloads import NUM_THREADS, run_mix

#: (name, unit, better).
PER_LAYER: list[tuple[str, str, str]] = [
    ("graph.io.load_s", "s", "lower"),
    ("partition.by_destination_s", "s", "lower"),
    ("layout.csr_build_s", "s", "lower"),
    ("layout.csc_build_s", "s", "lower"),
    ("layout.coo_build_s", "s", "lower"),
    ("layout.store_build_s", "s", "lower"),
    ("layout.store_bytes", "bytes", "lower"),
    ("grid.build_s", "s", "lower"),
    ("grid.read_block_s", "s", "lower"),
    ("grid.block_reads", "count", "lower"),
    ("grid.cache_hits", "count", "higher"),
    ("grid.blocks_skipped", "count", "higher"),
    ("grid.prefetched", "count", "higher"),
    ("grid.bytes_read", "bytes", "lower"),
    ("grid.read_mb_per_s", "MB/s", "higher"),
    ("grid.hit_ratio", "ratio", "higher"),
    ("grid.retries", "count", "lower"),
    ("grid.prefetch_gain", "ratio", "higher"),
    ("grid.overhead_vs_inram", "ratio", "lower"),
    ("budget.limit_bytes", "bytes", "lower"),
    ("budget.high_water_bytes", "bytes", "lower"),
    ("budget.evictions", "count", "lower"),
    ("frontier.classify_s", "s", "lower"),
    ("frontier.classify_calls", "count", "lower"),
    ("frontier.convert_s", "s", "lower"),
    ("engine.edge_map_calls", "count", "lower"),
    ("engine.edge_map_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.self_us_per_task", "us", "lower"),
    ("engine.phases_csr", "count", "lower"),
    ("engine.phases_csc", "count", "lower"),
    ("engine.phases_coo", "count", "lower"),
    ("engine.phases_grid", "count", "lower"),
    ("engine.examined_edges", "count", "lower"),
    ("engine.active_edges", "count", "lower"),
    ("engine.useful_edge_ratio", "ratio", "higher"),
    ("engine.examined_medges_per_s", "Medges/s", "higher"),
    ("engine.warmup_excess_s", "s", "lower"),
    ("kernels.coo_s", "s", "lower"),
    ("kernels.csc_s", "s", "lower"),
    ("kernels.csr_sparse_s", "s", "lower"),
    ("kernels.tasks", "count", "lower"),
    ("kernels.coo_computed_gb_per_s", "GB/s", "higher"),
    ("kernels.coo_stream_frac", "ratio", "higher"),
    ("ops.process_edges_s", "s", "lower"),
    ("ops.process_edges_calls", "count", "lower"),
    ("gather.adjacency_s", "s", "lower"),
    ("gather.calls", "count", "lower"),
    ("gather.edges", "count", "lower"),
    ("backend.run_partitions_s", "s", "lower"),
    ("backend.batches", "count", "lower"),
    ("backend.partitions_dispatched", "count", "lower"),
    ("backend.shm_bytes_mapped", "bytes", "lower"),
    ("backend.shm_bytes_requested", "bytes", "lower"),
    ("backend.shm_bytes_republished", "bytes", "lower"),
    ("backend.segments_reused", "count", "higher"),
    ("backend.fallbacks", "count", "lower"),
    ("backend.pool_start_s", "s", "lower"),
    ("backend.speedup_vs_serial", "ratio", "higher"),
    ("backend.parallel_efficiency", "ratio", "higher"),
    ("algorithms.PR_s", "s", "lower"),
    ("algorithms.SPMV_s", "s", "lower"),
    ("algorithms.CC_s", "s", "lower"),
    ("algorithms.BFS_s", "s", "lower"),
    ("algorithms.BF_s", "s", "lower"),
    ("algorithms.driver_s", "s", "lower"),
    ("locality.pr_p1_over_p384", "ratio", "higher"),
    ("locality.spmv_p1_over_p384", "ratio", "higher"),
    ("journal.s", "s", "lower"),
    ("journal.commits", "count", "lower"),
    ("watchdog.s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.saves", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("machine.cores", "count", "higher"),
    ("machine.stream_copy_gb_per_s", "GB/s", "higher"),
    ("machine.cal_s", "s", "lower"),
    ("machine.cal_spread", "ratio", "lower"),
    ("cost.model_p1_over_p384", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.attributed_frac", "ratio", "higher"),
]

#: counts that two passes of one workload must agree on exactly.
REPEATING = (
    "engine.phases_csr", "engine.phases_csc", "engine.phases_coo", "engine.phases_grid",
    "engine.examined_edges", "grid.block_reads", "grid.cache_hits", "grid.blocks_skipped",
    "kernels.tasks", "gather.calls", "backend.partitions_dispatched",
)

#: the largest array the copy-rate measurement allocates.
STREAM_MAX_BYTES = 256 << 20

#: computed bytes one examined COO edge moves: two 4-byte ids read, an
#: 8-byte source value read, an 8-byte destination value updated.
COO_BYTES_PER_EDGE = 24


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _noop() -> None:
    return None


def _operator_paths(calls) -> list[str]:
    from repro.algorithms import registry

    return sorted({path for code, _ in calls for path in registry.get(code).operators})


class Recorder:
    """Collects what one traced run observes and derives the metrics."""

    def __init__(self, spec: dict, cals: list[float]) -> None:
        self.spec = spec
        self.cals = cals
        self.tracer = Tracer()
        self.passes: dict[str, list[dict]] = {"untraced": [], "traced": []}
        #: raw seconds (and plain ratios) of the side measurements.
        self.side: dict[str, float] = {}
        self.info: dict[str, object] = {}

    @contextlib.contextmanager
    def tracing(self):
        """Wrappers installed for the duration of the ``with`` block."""
        calls = [tuple(c) for c in self.spec["calls"]]
        self.tracer.install(
            _operator_paths(calls),
            backend_only=self.spec["backend"].startswith("process"),
        )
        try:
            yield
        finally:
            self.tracer.uninstall()

    def attach(self, subject, setup: dict) -> None:
        """The traced set-up is done: ``subject`` is what the passes run on."""
        self.subject = subject
        self.setup = setup
        self.setup_rows = self.tracer.totals()

    # -- per-pass bookkeeping ------------------------------------------
    def snapshot(self) -> dict:
        engine = self.subject.engine
        grid = engine.grid
        return {
            "backend": dict(vars(engine.backend_stats)),
            "grid": dict(vars(grid.stats)) if grid is not None else {},
            "evictions": grid.budget.evictions if grid is not None else 0,
            "spans": len(self.tracer),
            "counts": Counter(self.tracer.counts),
        }

    def note_pass(self, phase: str, record: dict, results: list, before: dict) -> None:
        after = self.snapshot()
        counts: Counter = Counter()
        coo_examined = 0
        for result in results:
            for edge_map in result.stats.edge_maps:
                counts[f"engine.phases_{edge_map.layout}"] += 1
                counts["engine.examined_edges"] += edge_map.examined_edges
                counts["engine.active_edges"] += edge_map.active_edges
                if edge_map.layout in ("coo", "grid"):  # both run the COO kernel
                    coo_examined += edge_map.examined_edges

        def delta(group: str, field: str) -> int:
            return after[group].get(field, 0) - before[group].get(field, 0)

        counts["backend.batches"] = delta("backend", "batches_dispatched")
        for field in (
            "partitions_dispatched", "shm_bytes_requested", "shm_bytes_republished",
            "segments_reused", "fallbacks",
        ):
            counts[f"backend.{field}"] = delta("backend", field)
        for field in ("block_reads", "cache_hits", "blocks_skipped", "prefetched", "bytes_read"):
            counts[f"grid.{field}"] = delta("grid", field)
        counts["grid.retries"] = sum(
            delta("grid", field) for field in ("io_retries", "write_retries", "repairs")
        )
        counts["budget.evictions"] = after["evictions"] - before["evictions"]
        counts.update(after["counts"] - before["counts"])
        rows = self.tracer.totals(before["spans"], after["spans"])
        calls = {name: row["calls"] for name, row in rows.items()}
        counts["kernels.tasks"] = sum(
            calls.get(f"kernels.{kernel}", 0) for kernel in ("coo", "csc", "csr_sparse")
        )
        counts["gather.calls"] = calls.get("gather.adjacency", 0)
        self.passes[phase].append(
            {
                **record,
                "scale": record["cal_s"] / record["raw_s"],
                "counts": counts,
                "coo_examined": coo_examined,
                "rows": rows,
            }
        )
        self.last_results = results

    # -- measurements beside the passes --------------------------------
    def side_measurements(self) -> None:
        """Direct timed calls into the set-up layers, the machine's copy
        rate, and the comparison passes the ratio metrics need.  One
        calibration pair brackets the lot."""
        from repro.graph.csr import build_csr
        from repro.layout.coo import PartitionedCOO
        from repro.layout.pcsr import RangedCSC
        from repro.partition.by_destination import partition_by_destination

        spec, subject, side = self.spec, self.subject, self.side
        edges = subject.edges
        side["partition.by_destination_s"], partition = _timed(
            lambda: partition_by_destination(edges, spec["partitions"])
        )
        side["layout.csr_build_s"], _ = _timed(lambda: build_csr(edges, pruned=False))
        side["layout.csc_build_s"], _ = _timed(lambda: RangedCSC.build(edges, partition))
        side["layout.coo_build_s"], _ = _timed(
            lambda: PartitionedCOO.build(edges, partition, edge_order="source")
        )
        if spec["backend"].startswith("process"):
            side["backend.pool_start_s"], _ = _timed(_start_pool)
            side["serial_pass_s"] = self._comparison_pass(subject.store, "serial")[0]
        if spec["spill"]:
            self._spill_comparisons()
        if spec["partitions"] == 1:
            self._locality_comparison()
        self._stream_copy()
        self.cals.append(calibrate())
        self.side_scale = calibrated(1.0, self.cals[-2], self.cals[-1])

    def _comparison_pass(self, store, backend: str, manager=None, **engine_kwargs):
        """The second of two passes of the mix on a fresh engine over
        ``store``, as ``run_mix`` returns it."""
        from repro.core.engine import Engine
        from repro.core.options import EngineOptions

        options = EngineOptions(num_threads=NUM_THREADS, backend=backend)
        with Engine(store, options, **engine_kwargs) as engine:
            run_mix(engine, self.subject.calls, manager)
            return run_mix(engine, self.subject.calls, manager)

    def _spill_comparisons(self) -> None:
        """The same mix unsupervised in RAM, and supervised over the same
        grid without read-ahead."""
        from repro.layout.grid import GridStore
        from repro.resilience import ResiliencePolicy, Watchdog

        subject = self.subject
        self.side["inram_pass_s"] = self._comparison_pass(subject.store, "serial")[0]
        live = subject.engine.grid
        limit = live.budget.limit_bytes
        self.side["noprefetch_pass_s"] = self._comparison_pass(
            subject.store,
            "serial",
            subject.manager,
            resilience=ResiliencePolicy(memory_budget=limit, watchdog=Watchdog(grace=4.0)),
            grid=GridStore.open(live.directory, budget=limit),
        )[0]

    def _locality_comparison(self) -> None:
        """PR and SPMV at the partitioned optimum beside this P=1 row, and
        the cost model's prediction of the PR ratio."""
        from repro.layout.store import GraphStore
        from repro.machine.cost import CostModel, profile_store
        from repro.machine.spec import MachineSpec

        subject = self.subject
        store = GraphStore.build(
            subject.edges, num_partitions=self.spec["partitions_optimum"]
        )
        _, per_code, results = self._comparison_pass(store, "serial")
        for code in ("PR", "SPMV"):
            self.side[f"optimum_{code}_s"] = per_code[code]
        model = CostModel(
            MachineSpec().scaled_for(subject.edges.num_vertices), num_threads=NUM_THREADS
        )
        pr = [call[0] for call in subject.calls].index("PR")

        def predicted(at_store, result) -> float:
            profile = profile_store(at_store, num_threads=NUM_THREADS)
            return model.run_time_seconds(result.stats, profile)

        self.side["cost.model_p1_over_p384"] = predicted(
            subject.store, self.last_results[pr]
        ) / predicted(store, results[pr])

    def _stream_copy(self) -> None:
        """STREAM-style copy rate: the bandwidth ceiling the kernels sit under."""
        llc = _last_level_cache_bytes()
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        # Two arrays, each four times the last-level cache, within an eighth
        # of RAM -- and within STREAM_MAX_BYTES: this VM reports its host's
        # 260 MB L3, and faulting in 2 GB of fresh pages costs it 10 s.
        nbytes = min(4 * llc, ram // 16, STREAM_MAX_BYTES)
        a = np.ones(nbytes // 8)
        b = np.empty_like(a)
        best = min(_timed(lambda: np.copyto(b, a))[0] for _ in range(3))
        self.side["machine.stream_copy_gb_per_s"] = 2 * a.nbytes / best / 1e9
        self.info["stream_copy"] = {
            "array_bytes": int(a.nbytes),
            "llc_bytes": llc,
            "cache_resident": bool(a.nbytes < 4 * llc),
        }

    # -- derivation ------------------------------------------------------
    def metrics(self) -> tuple[dict[str, float], dict]:
        """Every ``PER_LAYER`` metric (0 where the layer did nothing)."""
        side, setup = self.side, self.setup
        traced, untraced = self.passes["traced"], self.passes["untraced"]
        engine = self.subject.engine
        m: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

        # Counts: per pass, from the first traced pass (they repeat exactly).
        for name, value in traced[0]["counts"].items():
            if name in m:
                m[name] = value

        # Span times: mean of the traced passes, in calibrated seconds.
        totals: Counter = Counter()
        selfs: Counter = Counter()
        calls: Counter = Counter()
        for p in traced:
            for name, row in p["rows"].items():
                totals[name] += row["total_s"] * p["scale"] / len(traced)
                selfs[name] += row["self_s"] * p["scale"] / len(traced)
                calls[name] += row["calls"] / len(traced)
        pass_s = statistics.mean(p["cal_s"] for p in traced)
        untraced_s = statistics.mean(p["cal_s"] for p in untraced)
        m["engine.edge_map_calls"] = calls["engine.edge_map"]
        m["engine.edge_map_s"] = totals["engine.edge_map"]
        m["engine.self_s"] = selfs["engine.edge_map"] + selfs["engine.vertex_map"]
        for kernel in ("coo", "csc", "csr_sparse"):
            m[f"kernels.{kernel}_s"] = selfs[f"kernels.{kernel}"]
        if m["kernels.tasks"]:
            m["engine.self_us_per_task"] = m["engine.self_s"] / m["kernels.tasks"] * 1e6
        m["ops.process_edges_s"] = totals["ops.process_edges"]
        m["ops.process_edges_calls"] = calls["ops.process_edges"]
        m["gather.adjacency_s"] = totals["gather.adjacency"]
        m["frontier.classify_s"] = totals["frontier.classify"]
        m["frontier.classify_calls"] = calls["frontier.classify"]
        m["frontier.convert_s"] = selfs["frontier.as_sparse"] + selfs["frontier.as_bitmap"]
        m["backend.run_partitions_s"] = totals["backend.run_partitions"]
        m["grid.read_block_s"] = totals["grid.read_block"]
        m["checkpoint.save_s"] = totals["checkpoint.save"]
        m["checkpoint.saves"] = calls["checkpoint.save"]
        for name, seconds in selfs.items():
            layer = name.split(".", 1)[0]
            if layer in ("journal", "watchdog"):
                m[f"{layer}.s"] += seconds
        m["journal.commits"] = calls["journal.commit"] + calls["journal.commit_block"]
        m["trace.spans"] = sum(calls.values())
        m["algorithms.driver_s"] = pass_s - totals["<root>"]
        m["trace.attributed_frac"] = totals["<root>"] / pass_s
        m["trace.overhead_ratio"] = pass_s / untraced_s
        for code in untraced[0]["algorithms_cal_s"]:
            m[f"algorithms.{code}_s"] = statistics.mean(
                p["algorithms_cal_s"][code] for p in untraced
            )

        # Work done and its rates.
        examined = m["engine.examined_edges"]
        if examined:
            m["engine.useful_edge_ratio"] = m["engine.active_edges"] / examined
            m["engine.examined_medges_per_s"] = examined / pass_s / 1e6
        m["machine.stream_copy_gb_per_s"] = side["machine.stream_copy_gb_per_s"]
        if m["kernels.coo_s"]:
            coo_bytes = traced[0]["coo_examined"] * COO_BYTES_PER_EDGE
            m["kernels.coo_computed_gb_per_s"] = coo_bytes / m["kernels.coo_s"] / 1e9
            m["kernels.coo_stream_frac"] = (
                m["kernels.coo_computed_gb_per_s"] / m["machine.stream_copy_gb_per_s"]
            )

        # Set-up layers: the traced set-up itself, and direct timed calls.
        setup_scale = setup["cal_s"] / setup["raw_s"]
        m["engine.warmup_excess_s"] = setup["cold_s"] * setup_scale - pass_s
        m["graph.io.load_s"] = setup["load_s"] * setup_scale
        m["layout.store_build_s"] = setup["build_s"] * setup_scale
        m["layout.store_bytes"] = self.subject.store.storage_bytes()
        if "grid.build" in self.setup_rows:
            m["grid.build_s"] = self.setup_rows["grid.build"]["total_s"] * setup_scale
        for name in (
            "partition.by_destination_s", "layout.csr_build_s", "layout.csc_build_s",
            "layout.coo_build_s", "backend.pool_start_s",
        ):
            m[name] = side.get(name, 0.0) * self.side_scale
        m["backend.shm_bytes_mapped"] = engine.backend_stats.shm_bytes_mapped

        # Grid and budget, and the ratios against a comparison pass.
        if engine.grid is not None:
            budget = engine.grid.budget
            m["budget.limit_bytes"] = budget.limit_bytes or 0
            m["budget.high_water_bytes"] = budget.high_water_bytes
            m["grid.hit_ratio"] = m["grid.cache_hits"] / (
                m["grid.block_reads"] + m["grid.cache_hits"]
            )
            m["grid.read_mb_per_s"] = m["grid.bytes_read"] / m["grid.read_block_s"] / 1e6
            m["grid.prefetch_gain"] = side["noprefetch_pass_s"] * self.side_scale / untraced_s
            m["grid.overhead_vs_inram"] = untraced_s / (side["inram_pass_s"] * self.side_scale)
        if "serial_pass_s" in side:
            speedup = side["serial_pass_s"] * self.side_scale / untraced_s
            m["backend.speedup_vs_serial"] = speedup
            m["backend.parallel_efficiency"] = speedup / NUM_THREADS
        if "optimum_PR_s" in side:
            for code, name in (("PR", "pr"), ("SPMV", "spmv")):
                m[f"locality.{name}_p1_over_p384"] = m[f"algorithms.{code}_s"] / (
                    side[f"optimum_{code}_s"] * self.side_scale
                )
            m["cost.model_p1_over_p384"] = side["cost.model_p1_over_p384"]

        # The machine.
        m["machine.cores"] = len(os.sched_getaffinity(0))
        m["machine.cal_s"] = statistics.mean(self.cals)
        m["machine.cal_spread"] = (max(self.cals) - min(self.cals)) / statistics.median(self.cals)
        self.info["guard_invocations"] = engine.guard_invocations
        return m, self.info

    def invariant_failures(self) -> list[str]:
        """Counts that must repeat or balance and did not; each is one failed check."""
        problems = []
        traced = self.passes["traced"]
        for name in REPEATING:
            # Span-derived counts exist only while tracing.
            group = traced if name in ("kernels.tasks", "gather.calls") else (
                self.passes["untraced"] + traced
            )
            seen = {p["counts"][name] for p in group}
            if len(seen) > 1:
                problems.append(f"invariant: {name} differs between passes: {sorted(seen)}")
        grid = self.subject.engine.grid
        if grid is not None:
            c = traced[0]["counts"]
            scheduled = c["engine.phases_grid"] * len(grid.manifest["blocks"])
            served = c["grid.block_reads"] + c["grid.cache_hits"] + c["grid.blocks_skipped"]
            if served != scheduled:
                problems.append(
                    f"invariant: reads + hits + skips = {served}, scheduled blocks = {scheduled}"
                )
            budget = grid.budget
            if budget.limit_bytes is not None and budget.high_water_bytes > budget.limit_bytes:
                problems.append(
                    f"invariant: budget high water {budget.high_water_bytes} B "
                    f"exceeds the limit {budget.limit_bytes} B"
                )
        else:
            supervised = sorted(
                name for p in traced for name in p["rows"]
                if name.split(".", 1)[0] in ("journal", "watchdog", "checkpoint")
            )
            if supervised:
                problems.append(f"invariant: supervision ran without a policy: {supervised}")
        return problems

    def write_trace(self) -> None:
        path = Path(self.spec["trace_dir"]) / f"trace_{self.spec['workload']}.json"
        self.tracer.write_chrome_trace(path, self.spec["workload"])


def _start_pool() -> None:
    """Fork the pool the process backend forks, and see every worker answer."""
    with ProcessPoolExecutor(max_workers=NUM_THREADS, mp_context=get_context("fork")) as pool:
        for future in [pool.submit(_noop) for _ in range(NUM_THREADS)]:
            future.result()


def _last_level_cache_bytes() -> int:
    best = 0
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        best = max(best, int(text.rstrip("KMG")) * scale)
    return best or 32 << 20
