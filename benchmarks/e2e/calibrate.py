"""Frozen calibration kernel: how fast is this host right now?

Identical passes of the benchmark drift 20-29 % in raw seconds on a
shared box while CPU time tracks wall time, so the drift is host speed,
not preemption.  Every reported time is therefore divided by what this
kernel took just before and just after it (see ``calibrated``).  The
kernel does the two kinds of work the system does: partition-sized numpy
slices through mask -> fancy-index -> ``np.add.at`` -> ``np.unique``,
and a pure-Python loop (interpreter speed swings independently).

It imports nothing from ``repro`` and must never change with it: editing
this file is a benchmark change that re-baselines every number.
"""

from __future__ import annotations

import functools
import time

import numpy as np

#: what the kernel takes on the reference box; calibrated seconds are
#: seconds this box would have taken had the kernel read exactly this.
CAL_NOMINAL_S = 0.30

_EDGES = 1 << 21
_VERTICES = 1 << 17
_SLICES = 1024
_ROUNDS = 4
_LOOP_ITERATIONS = 3_200_000


@functools.cache
def _inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    # 32-bit ids, as the system stores them.
    src = rng.integers(0, _VERTICES, size=_EDGES, dtype=np.int32)
    dst = np.sort(rng.integers(0, _VERTICES, size=_EDGES, dtype=np.int32))
    return src, dst, rng.random(_VERTICES), rng.random(_VERTICES) < 0.9


def calibrate() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    src, dst, values, bitmap = _inputs()
    accum = np.zeros(_VERTICES)
    step = _EDGES // _SLICES
    start = time.perf_counter()
    touched = 0
    for _ in range(_ROUNDS):
        for lo in range(0, _EDGES, step):
            s, d = src[lo : lo + step], dst[lo : lo + step]
            live = bitmap[s]
            s, d = s[live], d[live]
            np.add.at(accum, d, values[s])
            touched += np.unique(d).size
    total = 0
    for i in range(_LOOP_ITERATIONS):
        total += i & 7
    elapsed = time.perf_counter() - start
    if touched <= 0 or total <= 0 or not np.isfinite(accum.sum()):
        raise AssertionError("calibration kernel computed nothing")
    return elapsed


def calibrated(raw_s: float, cal_before: float, cal_after: float) -> float:
    """``raw_s`` in calibrated seconds, given the kernel readings around it."""
    return raw_s * CAL_NOMINAL_S / ((cal_before + cal_after) / 2.0)
