"""Acceptance matrix of the partition-granular recovery tentpole.

A ``worker_crash`` injected on partition *k* mid-phase must re-execute
only partition *k* (asserted through the phase journal) and finish
bit-identical to the fault-free run — for BFS, PageRank and connected
components, on all three checkpoint store backends.  A killed run must
resume from any backend bit-identically, and the same fault plan must
recover (not abort) on every baseline system configuration.

Each matrix cell is a point of the lattice (:mod:`tests.lattice`), which
decides bit-identity; the tests add the journal counts.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.algorithms.pagerank import pagerank
from repro.baselines.systems import SYSTEMS, build_engine
from repro.resilience import STORE_KINDS, FaultPlan, ResiliencePolicy
from tests.lattice import Config, check

pytestmark = pytest.mark.faultinjection

#: crash partition 3 of edge-map 1: three partitions have committed by
#: then, so granular recovery must keep them and re-execute exactly one.
CRASH = "worker_crash@1:3"
ALGOS = ["BFS", "PR", "CC"]
#: a mid-phase crash placed where each algorithm still has work in flight
#: (CC converges fast on the small graph, so its crash comes earlier).
KILL = {
    "BFS": "worker_crash@2:3",
    "PR": "worker_crash@3:3",
    "CC": "worker_crash@1:3",
}


def _point(code, **axes) -> Config:
    return Config(code, "small_symmetric" if code == "CC" else "small_rmat", **axes)


# ----------------------------------------------------------------------
# the matrix: algorithm x store backend, in-run granular recovery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", STORE_KINDS)
@pytest.mark.parametrize("code", ALGOS)
def test_crash_reexecutes_one_partition_bit_identical(code, kind):
    obs = check(_point(code, faults=CRASH, store=kind))
    assert obs.journal == (3, 1)  # (replays, reexecutions)
    assert any("keeping 3 committed partition(s)" in line for line in obs.log)
    assert obs.steps  # the run checkpointed to the backend, every generation verified


# ----------------------------------------------------------------------
# kill-and-resume across engines on every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", STORE_KINDS)
@pytest.mark.parametrize("code", ALGOS)
def test_killed_run_resumes_bit_identical(code, kind):
    check(dataclasses.replace(_point(code, store=kind), kill=KILL[code]))


# ----------------------------------------------------------------------
# CI matrix entry point: store backend and fault seed come from the
# environment (REPRO_STORE x REPRO_FAULT_SEED), so one test covers every
# cell of the {local,sharded,replicated} x seeds grid
# ----------------------------------------------------------------------
def test_seeded_plan_recovers_on_configured_store():
    kind = os.environ.get("REPRO_STORE", "sharded")
    seed = int(os.environ.get("REPRO_FAULT_SEED", "7"))
    plan = FaultPlan.random(seed, iterations=6, num_faults=2, kinds=("worker_crash", "partition"))
    assert check(_point("PR", faults=plan.to_spec(), store=kind)).steps


# ----------------------------------------------------------------------
# the baseline systems recover under the same fault plan
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", ["ligra", "polymer", "gg1"])
def test_baselines_recover_under_partition_scoped_faults(small_rmat, system):
    """Partition 0 exists in every configuration (Ligra has exactly one),
    so one fault plan exercises all of them."""
    config = SYSTEMS[system]
    baseline = pagerank(
        build_engine(config, small_rmat, num_threads=4), iterations=6
    )
    policy = ResiliencePolicy(
        max_retries=4, fault_plan=FaultPlan.from_spec("worker_crash@1:0,oom@3")
    )
    engine = build_engine(config, small_rmat, num_threads=4, resilience=policy)
    faulted = pagerank(engine, iterations=6)
    assert np.array_equal(faulted.ranks, baseline.ranks)
    assert engine.resilience_log  # faults fired and were survived
