"""ResiliencePolicy: backoff schedule, rollback, and log bookkeeping."""

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.core import Engine, EngineOptions
from repro.errors import ValidationError
from repro.graph import generators as gen
from repro.layout import GraphStore
from repro.partition.by_destination import partition_by_destination
from repro.resilience import FaultEvent, FaultPlan, ResiliencePolicy


def _engine(edges, resilience=None, partitions=8):
    store = GraphStore.build(edges, num_partitions=partitions)
    return Engine(store, EngineOptions(num_threads=4), resilience=resilience)


def test_backoff_delays_are_capped_exponential():
    policy = ResiliencePolicy(backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.35)
    assert [policy.backoff_delay(k) for k in range(4)] == [0.1, 0.2, 0.35, 0.35]


def test_backoff_sleeps_between_retries(small_rmat):
    slept = []
    plan = FaultPlan([FaultEvent("worker_crash", 0) for _ in range(3)])
    policy = ResiliencePolicy(
        max_retries=3,
        backoff_base=0.1,
        backoff_factor=2.0,
        backoff_cap=0.35,
        fault_plan=plan,
        sleep=slept.append,
    )
    pagerank(_engine(small_rmat, policy), iterations=2)
    assert slept == [0.1, 0.2, 0.35]


def test_zero_base_backoff_never_sleeps(small_rmat):
    slept = []
    plan = FaultPlan([FaultEvent("worker_crash", 0)])
    policy = ResiliencePolicy(max_retries=2, fault_plan=plan, sleep=slept.append)
    pagerank(_engine(small_rmat, policy), iterations=2)
    assert slept == []


def test_partial_phase_is_rolled_back_before_retry(small_rmat):
    """A partition-task fault mid-phase must not double-apply updates."""
    baseline = pagerank(_engine(small_rmat), iterations=3)
    # Fail partition 2 of the first (dense) edge-map, after partitions 0-1
    # already accumulated into the operator's arrays.
    policy = ResiliencePolicy(max_retries=2, fault_plan=FaultPlan.from_spec("partition@0:2"))
    faulted = pagerank(_engine(small_rmat, policy), iterations=3)
    assert np.array_equal(faulted.ranks, baseline.ranks)


def test_failed_attempt_stats_are_discarded(small_rmat):
    policy = ResiliencePolicy(
        max_retries=2, fault_plan=FaultPlan.from_spec("partition@0:1")
    )
    engine = _engine(small_rmat, policy)
    result = pagerank(engine, iterations=3)
    # one stats record per completed iteration; the faulted attempt left none
    assert result.stats.num_iterations == 3


def test_resilience_log_records_recovery(small_rmat):
    policy = ResiliencePolicy(max_retries=2, fault_plan=FaultPlan.from_spec("worker_crash@1"))
    engine = _engine(small_rmat, policy)
    pagerank(engine, iterations=3)
    assert any("worker crash" in line for line in engine.resilience_log)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_retries": -1},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
        {"backoff_cap": -1.0},
        {"min_partitions": 0},
    ],
)
def test_policy_validates_parameters(kwargs):
    with pytest.raises(ValidationError):
        ResiliencePolicy(**kwargs)


def test_unsupervised_engine_is_unchanged(small_rmat):
    """No policy: the fast path, no snapshots, identical results."""
    a = pagerank(_engine(small_rmat), iterations=4)
    b = pagerank(_engine(small_rmat, ResiliencePolicy(max_retries=3)), iterations=4)
    assert np.array_equal(a.ranks, b.ranks)


def test_the_halving_rung_keeps_the_stores_balance_criterion():
    """A vertex-balanced store (BFS, BF, BC) stays vertex-balanced at 8 -> 4."""
    edges = gen.rmat(8, 8.0, seed=1)
    store = GraphStore.build(edges, num_partitions=8, balance="vertices")
    policy = ResiliencePolicy(max_retries=1, fault_plan=FaultPlan.from_spec("oom@0"))
    with Engine(store, EngineOptions(num_threads=4), resilience=policy) as engine:
        bfs(engine, 0)
        halved = engine.store
    want = partition_by_destination(edges, 4, balance="vertices").boundaries
    assert halved.csc.partition.boundaries.tolist() == want.tolist() == [0, 64, 128, 192, 256]
    assert halved.balance == "vertices"
