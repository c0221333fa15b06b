"""Perf smoke benchmark: vectorised memory simulator vs scalar references.

Standalone (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_memsim_perf.py \
        [--out benchmarks/out/BENCH_memsim.json] \
        [--baseline benchmarks/BENCH_memsim_baseline.json]

Times the production kernels against the retained scalar reference
implementations on a ~1M-access synthetic graph trace and writes
``BENCH_memsim.json`` rows ``{name, trace_len, scalar_s, vect_s,
speedup}``.  Against a baseline file it enforces a ratio gate — the run
fails if any row's *speedup* drops below half the committed baseline's
(speedup ratios are machine-independent, unlike wall times).  The
``fig8_sweep`` row is additionally held to the absolute >= 25x bar: a
two-algorithm configuration sweep in which the scalar path honestly
replays every (trace, config) pair per algorithm plus a full
stack-distance histogram each, while the vectorised path answers
everything from grouped Mattson profiles memoised content-addressably.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]  # the product, and tests/references.py

from repro.graph.generators import rmat  # noqa: E402
from repro.layout.coo import PartitionedCOO  # noqa: E402
from repro.memsim.cache import CacheConfig, simulate_cache  # noqa: E402
from repro.memsim.multicore import simulate_shared_cache  # noqa: E402
from repro.memsim.reuse import histogram_of_distances, stack_distances  # noqa: E402
from repro.memsim.simcache import SimulationCache  # noqa: E402
from repro.memsim.trace import next_array_trace, partition_next_traces  # noqa: E402
from repro.partition.by_destination import partition_by_destination  # noqa: E402
from tests.references import (  # noqa: E402
    reference_simulate_cache,
    reference_simulate_shared_cache,
    reference_stack_distances,
)

#: the fig8-style workflow row must beat the scalar path by this factor
#: (the PR's acceptance bar).
SWEEP_SPEEDUP_FLOOR = 25.0
#: regression gate: fail when a row's speedup halves vs the baseline.
REGRESSION_RATIO = 2.0

#: fig8-style sweep: a fully-associative capacity sweep (one Mattson
#: profile answers every capacity) plus set-associative points.  On the
#: unpartitioned trace the scalar LRU lists are hit hundreds of entries
#: deep, which is exactly what the offline formulation sidesteps.
SWEEP_CONFIGS = [
    CacheConfig(capacity_bytes=64 * s * w, line_bytes=64, associativity=w)
    for s, w in ((1, 256), (1, 1024), (64, 16), (64, 64))
]


def build_trace(target: int = 1_000_000) -> tuple[np.ndarray, list[np.ndarray]]:
    """~1M-access next-array traces of an RMAT graph.

    Returns the *unpartitioned* destination stream (fig8's baseline
    point, with paper-motivating long reuse distances) plus the
    8-partition per-stream traces for the multicore row.
    """
    edges = rmat(16, 16.0, seed=7)
    vp1 = partition_by_destination(edges, 1)
    coo1 = PartitionedCOO.build(edges, vp1, edge_order="source")
    trace = np.ascontiguousarray(next_array_trace(coo1, max_accesses=target))
    vp8 = partition_by_destination(edges, 8)
    coo8 = PartitionedCOO.build(edges, vp8, edge_order="source")
    streams = [np.ascontiguousarray(s) for s in partition_next_traces(coo8)]
    return trace, streams


def timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_stack_kernel(trace: np.ndarray) -> dict:
    """Raw kernel: batched stack distances vs the Fenwick per-access loop."""
    vect_s, got = timed(lambda: stack_distances(trace))
    scalar_s, ref = timed(lambda: reference_stack_distances(trace))
    assert np.array_equal(got, ref), "kernel not bit-identical to reference"
    return _row("stack_kernel", trace.size, scalar_s, vect_s)


def bench_set_assoc(trace: np.ndarray) -> dict:
    """One set-associative replay vs the per-access list-based LRU."""
    cfg = CacheConfig(capacity_bytes=64 * 4 * 256, line_bytes=64, associativity=256)
    vect_s, got = timed(lambda: simulate_cache(trace, cfg))
    scalar_s, ref = timed(lambda: reference_simulate_cache(trace, cfg))
    assert got == ref, "set-associative result mismatch"
    return _row("set_assoc", trace.size, scalar_s, vect_s)


def bench_multicore(streams: list[np.ndarray]) -> dict:
    """Shared-cache round-robin replay vs the scalar scheduler walk."""
    cfg = CacheConfig(capacity_bytes=64 * 16 * 256, line_bytes=64, associativity=256)
    vect_s, got = timed(lambda: simulate_shared_cache(streams, cfg, block=64))
    scalar_s, ref = timed(
        lambda: reference_simulate_shared_cache(streams, cfg, block=64)
    )
    assert got == ref, "multicore result mismatch"
    return _row("multicore", sum(s.size for s in streams), scalar_s, vect_s)


def bench_fig8_sweep(trace: np.ndarray) -> dict:
    """fig8-style workflow: two algorithms sweeping identical traces.

    The scalar side does what the pre-vectorisation drivers did: one full
    per-access replay per (algorithm, config) pair plus one Fenwick
    stack-distance histogram per algorithm.  The vectorised side routes
    both algorithms through one content-addressed SimulationCache — the
    second algorithm's entire sweep is cache hits.
    """
    algorithms = ("PR", "BF")  # both stream the same partitioned trace

    def scalar():
        out = {}
        for algo in algorithms:
            for cfg in SWEEP_CONFIGS:
                out[(algo, cfg)] = reference_simulate_cache(trace, cfg)
            hist = histogram_of_distances(reference_stack_distances(trace))
            out[(algo, "hist")] = hist.misses_for_capacity(4096)
        return out

    def vectorised():
        sim = SimulationCache()
        out = {}
        for algo in algorithms:
            for cfg, res in sim.sweep(trace, SWEEP_CONFIGS).items():
                out[(algo, cfg)] = res
            out[(algo, "hist")] = sim.histogram(trace).misses_for_capacity(4096)
        return out

    vect_s, got = timed(vectorised)
    scalar_s, ref = timed(scalar)
    assert got == ref, "sweep results differ from scalar replays"
    return _row("fig8_sweep", trace.size, scalar_s, vect_s)


def _row(name: str, trace_len: int, scalar_s: float, vect_s: float) -> dict:
    return {
        "name": name,
        "trace_len": int(trace_len),
        "scalar_s": round(scalar_s, 4),
        "vect_s": round(vect_s, 4),
        "speedup": round(scalar_s / vect_s, 2) if vect_s > 0 else float("inf"),
    }


def check_baseline(rows: list[dict], baseline_path: Path) -> list[str]:
    baseline = {r["name"]: r for r in json.loads(baseline_path.read_text())["rows"]}
    errors = []
    for row in rows:
        base = baseline.get(row["name"])
        if base is None:
            continue
        floor = base["speedup"] / REGRESSION_RATIO
        if row["speedup"] < floor:
            errors.append(
                f"{row['name']}: speedup {row['speedup']}x fell below "
                f"{floor:.1f}x (baseline {base['speedup']}x / {REGRESSION_RATIO})"
            )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(Path(__file__).parent / "out" / "BENCH_memsim.json")
    )
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).parent / "BENCH_memsim_baseline.json"),
        help="baseline JSON for the regression gate ('' disables)",
    )
    args = parser.parse_args(argv)

    trace, streams = build_trace()
    print(f"trace: {trace.size} accesses, {len(streams)} partition streams")
    rows = [
        bench_stack_kernel(trace),
        bench_set_assoc(trace),
        bench_multicore(streams),
        bench_fig8_sweep(trace),
    ]
    for row in rows:
        print(
            f"{row['name']:>14}: scalar {row['scalar_s']:.3f}s  "
            f"vect {row['vect_s']:.3f}s  speedup {row['speedup']:.1f}x"
        )

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"rows": rows}, indent=2) + "\n")
    print(f"wrote {out_path}")

    failures = []
    sweep = next(r for r in rows if r["name"] == "fig8_sweep")
    if sweep["speedup"] < SWEEP_SPEEDUP_FLOOR:
        failures.append(
            f"fig8_sweep speedup {sweep['speedup']}x is below the "
            f"{SWEEP_SPEEDUP_FLOOR}x acceptance floor"
        )
    if args.baseline:
        baseline_path = Path(args.baseline)
        if baseline_path.exists():
            failures.extend(check_baseline(rows, baseline_path))
        else:
            print(f"note: no baseline at {baseline_path}; gate skipped")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("perf smoke ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
