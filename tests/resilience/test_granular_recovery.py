"""Acceptance matrix of the partition-granular recovery tentpole.

A ``worker_crash`` injected on partition *k* mid-phase must re-execute
only partition *k* (asserted through the phase journal) and finish
bit-identical to the fault-free run — for BFS, PageRank and connected
components, on all three checkpoint store backends.  A killed run must
resume from any backend bit-identically, and the same fault plan must
recover (not abort) on every baseline system configuration.
"""

import os

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.pagerank import pagerank
from repro.baselines.systems import SYSTEMS, build_engine
from repro.core import Engine, EngineOptions
from repro.errors import RetryExhausted
from repro.layout import GraphStore
from repro.resilience import (
    STORE_KINDS,
    CheckpointManager,
    CheckpointSession,
    FaultPlan,
    ResiliencePolicy,
    make_store,
)

pytestmark = pytest.mark.faultinjection

#: crash partition 3 of edge-map 1: three partitions have committed by
#: then, so granular recovery must keep them and re-execute exactly one.
CRASH = "worker_crash@1:3"


def _engine(edges, spec=None, retries=4):
    store = GraphStore.build(edges, num_partitions=8)
    policy = None
    if spec is not None:
        policy = ResiliencePolicy(
            max_retries=retries, fault_plan=FaultPlan.from_spec(spec)
        )
    return Engine(store, EngineOptions(num_threads=4), resilience=policy)


def _session(kind, tmp_path, name, resume=False):
    mgr = CheckpointManager(store=make_store(kind, tmp_path / kind))
    return CheckpointSession(mgr, name, resume=resume)


ALGOS = {
    "BFS": lambda eng, ck: bfs(eng, 0, checkpoint=ck),
    "PR": lambda eng, ck: pagerank(eng, iterations=6, checkpoint=ck),
    "CC": lambda eng, ck: connected_components(eng, checkpoint=ck),
}

#: a mid-run crash placed where each algorithm still has work in flight
#: (CC converges fast on the small graph, so its crash comes earlier).
KILL = {
    "BFS": "worker_crash@2:3",
    "PR": "worker_crash@3:3",
    "CC": "worker_crash@1:3",
}


def _payload(result):
    arrays = {
        name: value
        for name, value in vars(result).items()
        if isinstance(value, np.ndarray)
    }
    assert arrays, "algorithm result carries no state arrays"
    return arrays


def _graph_for(code, small_rmat, small_symmetric):
    return small_symmetric if code == "CC" else small_rmat


# ----------------------------------------------------------------------
# the matrix: algorithm x store backend, in-run granular recovery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", STORE_KINDS)
@pytest.mark.parametrize("code", list(ALGOS))
def test_crash_reexecutes_one_partition_bit_identical(
    tmp_path, small_rmat, small_symmetric, code, kind
):
    graph = _graph_for(code, small_rmat, small_symmetric)
    run = ALGOS[code]
    baseline = run(_engine(graph), None)

    engine = _engine(graph, CRASH)
    session = _session(kind, tmp_path, f"{code}-run")
    faulted = run(engine, session)

    for name, value in _payload(baseline).items():
        assert np.array_equal(getattr(faulted, name), value), name
    assert engine.journal.reexecutions == 1
    assert engine.journal.replays == 3
    assert any(
        "keeping 3 committed partition(s)" in line for line in engine.resilience_log
    )
    # the run checkpointed to the backend and the generations load clean
    steps = session.manager.steps(f"{code}-run")
    assert steps
    assert all(session.manager.verify(f"{code}-run", s) for s in steps)


# ----------------------------------------------------------------------
# kill-and-resume across engines on every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", STORE_KINDS)
@pytest.mark.parametrize("code", list(ALGOS))
def test_killed_run_resumes_bit_identical(
    tmp_path, small_rmat, small_symmetric, code, kind
):
    graph = _graph_for(code, small_rmat, small_symmetric)
    run = ALGOS[code]
    baseline = run(_engine(graph), None)

    with pytest.raises(RetryExhausted):
        run(_engine(graph, KILL[code], retries=0),
            _session(kind, tmp_path, "killed"))

    resumed = run(_engine(graph), _session(kind, tmp_path, "killed", resume=True))
    for name, value in _payload(baseline).items():
        assert np.array_equal(getattr(resumed, name), value), name


# ----------------------------------------------------------------------
# CI matrix entry point: store backend and fault seed come from the
# environment (REPRO_STORE x REPRO_FAULT_SEED), so one test covers every
# cell of the {local,sharded,replicated} x seeds grid
# ----------------------------------------------------------------------
def test_seeded_plan_recovers_on_configured_store(tmp_path, small_rmat):
    kind = os.environ.get("REPRO_STORE", "sharded")
    seed = int(os.environ.get("REPRO_FAULT_SEED", "7"))
    baseline = pagerank(_engine(small_rmat), iterations=6)
    plan = FaultPlan.random(
        seed, iterations=6, num_faults=2, kinds=("worker_crash", "partition")
    )
    policy = ResiliencePolicy(max_retries=6, fault_plan=plan)
    engine = Engine(
        GraphStore.build(small_rmat, num_partitions=8),
        EngineOptions(num_threads=4),
        resilience=policy,
    )
    session = _session(kind, tmp_path, "seeded")
    faulted = pagerank(engine, iterations=6, checkpoint=session)
    assert np.array_equal(faulted.ranks, baseline.ranks)
    steps = session.manager.steps("seeded")
    assert steps and all(session.manager.verify("seeded", s) for s in steps)


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
