"""One workload's timeline, run in its own process.

``run.py`` starts this file as a subprocess (so ``peak_rss_mb`` is the
workload's own) and hands it a spec: the ``.npz`` path, the calls of one
pass and what their results must be.  Untraced timeline::

    cal . [set-up . cal] x SETUPS . [pass . cal] x N

A *set-up* is everything between a file on disk and the first complete
result set: ``load_npz`` (validated) -> ``GraphStore.build`` -> engine,
policy and checkpoint manager -> one cold pass of the mix.  The pool
forks, layouts are published to shared memory and the spill rung builds
its grid inside that cold pass, so work moved into lazy set-up shows.
A *pass* runs the mix once more on the warm engine of the last set-up.
Every time is reported raw and in calibrated seconds (``calibrate.py``).

The traced timeline (``spec["trace"]``) does one set-up, two untraced and
two traced passes, then the side measurements some per-layer metrics
need; ``layers.py`` turns what it records into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import threading
import time
from pathlib import Path

import numpy as np

from calibrate import calibrate, calibrated
from oracle import CHECKED_FIELD, digest, field_matches
from workloads import NUM_THREADS, call_key, run_mix

SETUPS = 2
MIN_PASSES = 3
MAX_PASSES = 7
#: how long closed pools and reader threads get to disappear before
#: whatever is left counts as residue.
RESIDUE_GRACE_S = 5.0


# ----------------------------------------------------------------------
# correctness: one check per algorithm result per pass
# ----------------------------------------------------------------------
class Checker:
    """Compares every result to the oracle and counts the outcomes."""

    def __init__(self, expectations: dict, digests: dict | None, corrupt: bool) -> None:
        self.expectations = expectations
        #: reference digests, or None: then every result must at least
        #: repeat the first digest this process saw for the same call.
        self.digests = dict(digests) if digests is not None else None
        self._first_seen: dict[str, str] = {}
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check_pass(self, label: str, calls, results, problem: str | None = None) -> None:
        """Check one pass's results; ``problem`` fails all of them outright."""
        from repro.algorithms.registry import result_arrays

        for call, result in zip(calls, results):
            key = call_key(call)
            self.attempted += 1
            reason = problem
            if reason is None:
                arrays = result_arrays(result)
                if self.corrupt:
                    self.corrupt = False
                    victim = arrays[CHECKED_FIELD[call[0]]]
                    victim[victim.size // 2] += 1
                reason = self._mismatch(key, call[0], arrays)
            if reason is not None:
                self.failed += 1
                self.failures.append(f"{label} {key}: {reason}")

    def fail_pass(self, label: str, calls, problem: str) -> None:
        self.check_pass(label, calls, [None] * len(calls), problem)

    def _mismatch(self, key: str, code: str, arrays: dict) -> str | None:
        field = CHECKED_FIELD[code]
        if not field_matches(field, arrays[field], self.expectations[key]):
            return f"{field} differs from the independent expectation"
        got = digest(arrays)
        if self.digests is not None:
            kind, want = "reference", self.digests[key]
        else:
            kind, want = "first pass's", self._first_seen.setdefault(key, got)
        if got != want:
            return f"digest {got} differs from the {kind} {want}"
        return None


# ----------------------------------------------------------------------
# /proc: memory, children, residue
# ----------------------------------------------------------------------
def _proc_status(pid: int) -> dict[str, str]:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:  # the process ended while we were looking
        return {}
    return dict(line.split(":\t", 1) for line in text.splitlines() if ":\t" in line)


def live_children(parent: int) -> list[int]:
    """PIDs whose parent is ``parent``.  Python's shared-memory resource
    tracker is left out: it lives as long as the interpreter by design."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        pid = int(entry)
        if _proc_status(pid).get("PPid", "").strip() != str(parent):
            continue
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            out.append(pid)
    return out


def peak_rss_mb() -> float:
    """``VmHWM`` of this process plus every live child, in MiB.

    (``RUSAGE_CHILDREN`` only counts children already waited for; it
    read 3 MB for a two-worker pool.)"""
    me = os.getpid()
    total_kb = 0
    for pid in [me, *live_children(me)]:
        total_kb += int(_proc_status(pid).get("VmHWM", "0 kB").split()[0])
    return total_kb / 1024.0


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def residue(shm_before: set[str], threads_before: int) -> list[str]:
    """What the closed engine left behind, after a short grace period."""
    deadline = time.monotonic() + RESIDUE_GRACE_S
    while True:
        found = []
        children = live_children(os.getpid())
        if children:
            found.append(f"live child processes {children}")
        extra_threads = threading.active_count() - threads_before
        if extra_threads > 0:
            found.append(f"{extra_threads} extra thread(s)")
        leaked = sorted(shm_segments() - shm_before)
        if leaked:
            found.append(f"shared-memory segments {leaked}")
        if not found or time.monotonic() > deadline:
            return found
        time.sleep(0.05)


# ----------------------------------------------------------------------
# set-up and passes
# ----------------------------------------------------------------------
class Subject:
    """One built engine plus what its workload needs around it."""

    def __init__(self, spec: dict, index: int) -> None:
        from repro.core.engine import Engine
        from repro.core.options import EngineOptions
        from repro.graph.io import load_npz
        from repro.layout.store import GraphStore

        self.calls = [tuple(c) for c in spec["calls"]]
        self.work = Path(spec["scratch"]) / f"subject-{index}"
        clock = time.perf_counter
        t0 = clock()
        self.edges = load_npz(spec["npz"])
        t1 = clock()
        self.store = GraphStore.build(self.edges, num_partitions=spec["partitions"])
        t2 = clock()
        self.manager = None
        policy = None
        if spec["spill"]:
            from repro.resilience import (
                CheckpointManager,
                ResiliencePolicy,
                Watchdog,
                make_store,
            )

            policy = ResiliencePolicy(
                memory_budget=self.store.storage_bytes() // 4,
                spill_dir=str(self.work / "grid"),
                grid_stripes=8,
                watchdog=Watchdog(grace=4.0),
            )
            ckpt = self.work / "ckpt"
            self.manager = CheckpointManager(ckpt, store=make_store("sharded", ckpt))
        options = EngineOptions(num_threads=NUM_THREADS, backend=spec["backend"])
        self.engine = Engine(self.store, options, resilience=policy)
        t3 = clock()
        self.parts = {"load_s": t1 - t0, "build_s": t2 - t1, "engine_s": t3 - t2}

    def close(self) -> None:
        self.engine.close()
        shutil.rmtree(self.work, ignore_errors=True)


def checked_pass(subject: Subject, checker: Checker, label: str):
    """One pass plus its checks.  Returns what ``run_mix`` returned, or
    None when the pass raised (all its checks then count as failed)."""
    fallbacks = subject.engine.backend_stats.fallbacks
    try:
        seconds, per_code, results = run_mix(subject.engine, subject.calls, subject.manager)
    except Exception as exc:  # the boundary: a failed pass is a result, not a crash
        checker.fail_pass(label, subject.calls, f"raised {type(exc).__name__}: {exc}")
        return None
    problem = None
    if subject.engine.backend_stats.fallbacks > fallbacks:
        problem = "the backend fell back to serial"
    checker.check_pass(label, subject.calls, results, problem)
    return seconds, per_code, results


def timed_setup(spec: dict, index: int, checker: Checker, cals: list[float]):
    """One set-up bracketed by calibration readings (the last of ``cals``
    is the one before).  Returns ``(subject, record)``, or ``(None, None)``
    when the cold pass failed.  Checking the results is the benchmark's
    work, not the system's, and stays outside the measured time."""
    subject = Subject(spec, index)
    cold = checked_pass(subject, checker, f"set-up {index}")
    cals.append(calibrate())
    if cold is None:
        subject.close()
        return None, None
    raw = sum(subject.parts.values()) + cold[0]
    record = {
        "raw_s": raw,
        "cal_s": calibrated(raw, cals[-2], cals[-1]),
        **subject.parts,
        "cold_s": cold[0],
    }
    return subject, record


def timed_pass(subject: Subject, checker: Checker, label: str, cals: list[float]):
    """One warm pass bracketed by calibration readings.  Returns
    ``(record, results)``, or None when the pass failed."""
    done = checked_pass(subject, checker, label)
    cals.append(calibrate())
    if done is None:
        return None
    raw, per_code, results = done
    scale = calibrated(1.0, cals[-2], cals[-1])
    record = {
        "raw_s": raw,
        "cal_s": raw * scale,
        "algorithms_cal_s": {code: s * scale for code, s in per_code.items()},
    }
    return record, results


# ----------------------------------------------------------------------
# the two timelines
# ----------------------------------------------------------------------
def run_untraced(spec: dict, checker: Checker, out: dict) -> Subject | None:
    calibrate()  # the first reading of a process is cold; discard it
    cals = [calibrate()]
    subject = None
    out["setups"] = []
    for index in range(SETUPS):
        if subject is not None:
            subject.close()
        subject, record = timed_setup(spec, index, checker, cals)
        if subject is None:
            break
        out["setups"].append(record)
    out["passes"] = []
    started = time.perf_counter()
    while subject is not None and len(out["passes"]) < MAX_PASSES:
        done = timed_pass(subject, checker, f"pass {len(out['passes'])}", cals)
        if done is None:
            break
        out["passes"].append(done[0])
        measured = time.perf_counter() - started
        if len(out["passes"]) >= MIN_PASSES and measured >= spec["seconds"]:
            break
    out["cal_readings"] = cals
    return subject


def run_traced(spec: dict, checker: Checker, out: dict) -> Subject | None:
    import layers

    calibrate()  # the first reading of a process is cold; discard it
    cals = [calibrate()]
    recorder = layers.Recorder(spec, cals)
    # The set-up is traced too: the spill rung builds its grid in there.
    with recorder.tracing():
        subject, setup = timed_setup(spec, 0, checker, cals)
    if subject is None:
        return None
    out["setups"] = [setup]
    recorder.attach(subject, setup)
    for phase, context in (("untraced", contextlib.nullcontext), ("traced", recorder.tracing)):
        with context():
            for index in range(2):
                before = recorder.snapshot()
                done = timed_pass(subject, checker, f"{phase} pass {index}", cals)
                if done is None:
                    return subject
                recorder.note_pass(phase, *done, before)
    recorder.side_measurements()
    out["per_layer"], out["info"] = recorder.metrics()
    for problem in recorder.invariant_failures():
        checker.attempted += 1
        checker.failed += 1
        checker.failures.append(problem)
    recorder.write_trace()
    out["cal_readings"] = cals
    return subject


def run(spec: dict) -> dict:
    """Run the spec's timeline in this process and return its record."""
    shm_before = shm_segments()
    threads_before = threading.active_count()
    with np.load(spec["expectations"]) as data:
        expectations = dict(data)
    checker = Checker(expectations, spec["digests"], spec["corrupt"])
    out: dict = {"workload": spec["workload"]}
    subject = (run_traced if spec["trace"] else run_untraced)(spec, checker, out)
    if subject is not None:
        out["peak_rss_mb"] = peak_rss_mb()
        subject.close()
    left = residue(shm_before, threads_before)
    if left:
        # Residue fails every check of the workload.
        checker.failures.extend(f"residue: {item}" for item in left)
        checker.failed = checker.attempted
    out["residue"] = left
    out["attempted"] = checker.attempted
    out["failed"] = checker.failed
    out["failures"] = checker.failures
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    record = run(spec)
    Path(spec["result"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
