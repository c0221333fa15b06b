"""ResiliencePolicy: its fields, rollback, and log bookkeeping."""

from dataclasses import fields

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.core import Engine, EngineOptions
from repro.errors import ValidationError
from repro.graph import generators as gen
from repro.layout import GraphStore
from repro.partition.by_destination import partition_by_destination
from repro.resilience import FaultPlan, ResiliencePolicy, Watchdog


def _engine(edges, resilience=None, partitions=8):
    store = GraphStore.build(edges, num_partitions=partitions)
    return Engine(store, EngineOptions(num_threads=4), resilience=resilience)


def test_the_policy_and_the_watchdog_keep_only_the_fields_an_entry_point_sets():
    """Every field here is set by a CLI flag, a benchmark or an example; a
    knob only a test would set does not come back."""
    assert [f.name for f in fields(ResiliencePolicy)] == [
        "max_retries",
        "fault_plan",
        "watchdog",
        "memory_budget",
        "spill_dir",
        "grid_stripes",
        "grid_stripe_mode",
    ]
    assert [f.name for f in fields(Watchdog)] == ["grace"]


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
        {"grid_stripes": 0},
        {"grid_stripe_mode": "edge"},
        {"memory_budget": 0},
        {"memory_budget": "lots"},
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
