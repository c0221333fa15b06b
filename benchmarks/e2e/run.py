"""End-to-end benchmark: six workloads, calibrated time-to-result, per-layer trace.

One workload, as the benchmark contract runs it (last stdout line is the
result object)::

    python3 benchmarks/e2e/run.py --workload dense_rmat --seed 11 --seconds 6 --trace 0

All six, with a table and one JSON document (``--trace`` adds the traced
runs and their per-layer metrics)::

    python3 benchmarks/e2e/run.py [--seed 11] [--workloads a,b] [--trace] [--out FILE]

    python3 benchmarks/e2e/run.py --compare A.json B.json    # ok / worse / unresolved
    python3 benchmarks/e2e/run.py --selfcheck                # a corrupted result must fail

See README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
#: a child that has not finished by then is killed; the contract allows 180 s.
CHILD_TIMEOUT_S = 170
#: how long a finished child's process group gets to empty by itself.
GROUP_GRACE_S = 3.0

sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import driver  # noqa: E402
import oracle  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import FULL, WORKLOADS, Sizes, make_inputs  # noqa: E402


@functools.cache
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _with_units(values: dict, units) -> dict:
    """``{name: {"value", "unit"}}`` for each ``(name, unit)`` of ``units``."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def _end_to_end_units() -> list[tuple[str, str]]:
    return [(m["name"], m["unit"]) for m in contract()["end_to_end"]]


PER_LAYER_UNITS = [(name, unit) for name, unit, _ in PER_LAYER]


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    sizes: Sizes = FULL,
    corrupt: bool = False,
    in_process: bool = False,
) -> dict:
    """Generate inputs from ``seed``, run the workload's timeline in a
    child process, and return its record with the end-to-end metrics."""
    workload = WORKLOADS[name]
    scratch = OUT_DIR / f"scratch-{name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    shm_before = driver.shm_segments()
    try:
        edges, npz, sources = make_inputs(workload, seed, sizes, scratch)
        calls = workload.calls(sources)
        partitions = workload.partitions(sizes)
        np.savez(scratch / "expect.npz", **oracle.independent_expectations(edges, calls))
        digests = None
        if trace:
            other = 1 if partitions > 1 else sizes.partitions
            digests = oracle.reference_digests(edges, calls, other)
        spec = {
            "workload": name,
            "npz": str(npz),
            "calls": calls,
            "partitions": partitions,
            "partitions_optimum": sizes.partitions,
            "backend": workload.backend,
            "spill": workload.spill,
            "seconds": seconds,
            "trace": trace,
            "corrupt": corrupt,
            "expectations": str(scratch / "expect.npz"),
            "digests": digests,
            "scratch": str(scratch),
            "result": str(scratch / "result.json"),
            "trace_dir": str(OUT_DIR),
        }
        del edges
        record = driver.run(spec) if in_process else _run_child(spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    leftovers = [f"scratch directory {scratch}"] if scratch.exists() else []
    leaked = sorted(driver.shm_segments() - shm_before)
    if leaked:
        leftovers.append(f"shared-memory segments {leaked}")
    if leftovers:
        record["residue"] += leftovers
        record["failures"] += [f"residue: {item}" for item in leftovers]
        record["failed"] = record["attempted"]
    if not record.get("per_layer" if trace else "passes"):
        raise RuntimeError(
            f"workload {name}: the timeline did not complete: {record['failures']}"
        )
    record["seed"] = seed
    record["trace"] = trace
    if not trace:
        record["end_to_end"] = _end_to_end(record)
    return record


def _run_child(spec: dict) -> dict:
    """Run ``driver.py`` on ``spec`` in its own session and wait for it."""
    Path(spec["scratch"], "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("REPRO_BACKEND", None)
    child = subprocess.Popen(
        [sys.executable, str(HERE / "driver.py"), str(Path(spec["scratch"], "spec.json"))],
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    # The child leads its own process group: whatever is still in it once
    # the child is gone (a hung child, orphaned pool workers) is stopped.
    orphans = _stop_group(child.pid, grace_s=0.0 if code is None else GROUP_GRACE_S)
    child.wait()
    if code != 0:
        raise RuntimeError(
            f"workload {spec['workload']}: driver "
            + ("timed out" if code is None else f"exited with code {code}")
        )
    record = json.loads(Path(spec["result"]).read_text())
    if orphans:
        record["residue"].append("processes left in the driver's group")
        record["failures"].append("residue: processes left in the driver's group")
        record["failed"] = record["attempted"]
    return record


def _stop_group(pgid: int, grace_s: float) -> bool:
    """Wait up to ``grace_s`` for process group ``pgid`` to empty (Python's
    shared-memory resource tracker outlives its interpreter by a moment),
    then SIGKILL what is left.  True if anything had to be killed."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return False  # empty, or only a zombie the caller reaps
        if time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _end_to_end(record: dict) -> dict:
    passes, setups = record["passes"], record["setups"]
    return {
        "run_s": statistics.median(p["cal_s"] for p in passes),
        "run_raw_s": statistics.median(p["raw_s"] for p in passes),
        "setup_s": statistics.median(s["cal_s"] for s in setups),
        "setup_raw_s": statistics.median(s["raw_s"] for s in setups),
        "peak_rss_mb": record["peak_rss_mb"],
        "failed_frac": record["failed"] / record["attempted"],
        "samples": len(passes),
    }


# ----------------------------------------------------------------------
# the contract's interface: one workload, one result line
# ----------------------------------------------------------------------
def contract_run(args) -> int:
    trace = bool(args.trace)
    record = run_workload(args.workload, args.seed, args.seconds, trace)
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if trace:
        metrics = _with_units(record["per_layer"], PER_LAYER_UNITS)
    else:
        metrics = _with_units(record["end_to_end"], _end_to_end_units())
    _print_metrics(args.workload, metrics)
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload:16s} {name:34s} {m['value']:>16.6g} {m['unit']}")


# ----------------------------------------------------------------------
# all workloads, one document
# ----------------------------------------------------------------------
def full_run(args) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    document = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, trace=False)
        row = {
            "end_to_end": record["end_to_end"],
            "run_s_samples": [p["cal_s"] for p in record["passes"]],
            "setup_s_samples": [s["cal_s"] for s in record["setups"]],
            "failures": record["failures"],
        }
        units = [*_end_to_end_units(), ("failed_frac", "ratio")]
        _print_metrics(name, _with_units(row["end_to_end"], units))
        if args.trace:
            traced = run_workload(name, args.seed, args.seconds, trace=True)
            row["per_layer"] = traced["per_layer"]
            row["info"] = traced["info"]
            row["failures"] += traced["failures"]
            row["end_to_end"]["failed_frac"] = (record["failed"] + traced["failed"]) / (
                record["attempted"] + traced["attempted"]
            )
            _print_metrics(name, _with_units(traced["per_layer"], PER_LAYER_UNITS))
        for failure in row["failures"]:
            print(f"FAILED {name}: {failure}")
        document["workloads"][name] = row
    out = Path(args.out) if args.out else OUT_DIR / "e2e.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1))
    print(f"wrote {out}")
    failed = [n for n, row in document["workloads"].items() if row["end_to_end"]["failed_frac"] > 0]
    if failed:
        print(f"failed_frac > 0 on: {', '.join(failed)}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# comparing two documents: the only regression logic
# ----------------------------------------------------------------------
def _spread(samples: list[float]) -> float:
    """Interquartile range over the median, as the contract measures spread."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def compare(path_a: str, path_b: str) -> int:
    """Row by row (workload x end-to-end metric): is B worse than A?

    ``worse``: B's median is worse than A's by more than the metric's
    bound.  ``unresolved``: it is not, but a side's own spread is wider
    than the bound, so "unchanged" cannot be claimed either (unless every
    B sample beats every A sample).  ``failed_frac`` may not rise at all.
    """
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    bounds = {m["name"]: m["bound"] for m in contract()["end_to_end"]}
    bounds["failed_frac"] = 0.0
    worse = 0
    for name in a:
        if name not in b:
            continue
        for metric, bound in bounds.items():
            va, vb = a[name]["end_to_end"][metric], b[name]["end_to_end"][metric]
            sa = a[name].get(f"{metric}_samples", [va])
            sb = b[name].get(f"{metric}_samples", [vb])
            if vb > va * (1 + bound):
                verdict = "worse"
                worse += 1
            elif max(_spread(sa), _spread(sb)) > bound and not max(sb) < min(sa):
                verdict = "unresolved"
            else:
                verdict = "ok"
            change = (vb / va - 1) * 100 if va else 0.0
            print(f"{name:16s} {metric:12s} {va:12.5g} -> {vb:12.5g} {change:+7.2f}%  {verdict}")
    return 1 if worse else 0


def selfcheck(args) -> int:
    """Corrupt one result array; the harness must report ``failed_frac > 0``."""
    name = args.workload or "mixed_cc_road"
    record = run_workload(name, args.seed, args.seconds, trace=False, corrupt=True)
    failed_frac = record["failed"] / record["attempted"]
    print(f"selfcheck {name}: failed_frac = {failed_frac:.4f}")
    for failure in record["failures"]:
        print(f"  {failure}")
    return 0 if failed_frac > 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--workloads", help="comma-separated subset for the full run")
    parser.add_argument("--out", help="where the full run writes its document")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: nothing to benchmark", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = contract()["run_seconds"]
    if args.compare:
        return compare(*args.compare)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        return contract_run(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
