"""Watchdog: simulated-time deadlines and the retry/requeue/degrade ladder."""

import numpy as np
import pytest

from repro.algorithms.pagerank import pagerank
from repro.core import Engine, EngineOptions
from repro.errors import StallTimeout, WorkerFailure
from repro.graph import generators as gen
from repro.layout import GraphStore
from repro.machine.cost import CostParameters
from repro.resilience import (
    ESCALATION_LADDER,
    FaultPlan,
    ResiliencePolicy,
    Watchdog,
)

pytestmark = pytest.mark.faultinjection


# ----------------------------------------------------------------------
# unit behaviour
# ----------------------------------------------------------------------
def test_escalation_ladder_order():
    assert ESCALATION_LADDER == ("retry", "requeue", "degrade")


def test_stall_timeout_is_a_worker_failure():
    assert issubclass(StallTimeout, WorkerFailure)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Watchdog(grace=0.0)
    with pytest.raises(ValueError):
        Watchdog(requeue_after=0)
    with pytest.raises(ValueError):
        Watchdog(requeue_after=3, degrade_after=3)


def test_deadline_follows_the_cost_model():
    params = CostParameters(t_edge_ns=1.0, t_update_ns=1.5, t_sched_ns=2000.0)
    dog = Watchdog(params=params, grace=2.0)
    assert dog.predicted_ns(100) == pytest.approx(100 * 2.5 + 2000.0)
    assert dog.deadline_ns(100) == pytest.approx(2.0 * (100 * 2.5 + 2000.0))


def test_meeting_the_deadline_is_silent():
    dog = Watchdog()
    assert dog.observe(0, 100, dog.predicted_ns(100)) is None
    assert dog.overruns == {}
    assert dog.log == []


def test_overruns_walk_the_ladder_per_partition():
    dog = Watchdog()
    over = 10.0 * dog.deadline_ns(100)
    assert dog.observe(3, 100, over) == "retry"
    assert dog.observe(3, 100, over) == "requeue"
    assert dog.observe(3, 100, over) == "degrade"
    assert dog.observe(3, 100, over) == "degrade"  # stays at the top rung
    # another partition starts at the bottom of the ladder
    assert dog.observe(4, 100, over) == "retry"
    assert len(dog.log) == 5


def test_reset_forgets_history():
    dog = Watchdog()
    over = 10.0 * dog.deadline_ns(10)
    dog.observe(1, 10, over)
    dog.observe(1, 10, over)
    dog.reset()
    assert dog.observe(1, 10, over) == "retry"


# ----------------------------------------------------------------------
# engine integration: injected stalls drive the full ladder
# ----------------------------------------------------------------------
@pytest.fixture
def graph():
    return gen.rmat(8, 6.0, seed=3)


def _engine(edges, policy=None):
    store = GraphStore.build(edges, num_partitions=8)
    return Engine(store, EngineOptions(num_threads=4), resilience=policy)


def test_single_stall_recovers_partition_granularly(graph):
    baseline = pagerank(_engine(graph), iterations=4)
    dog = Watchdog()
    policy = ResiliencePolicy(
        max_retries=4, fault_plan=FaultPlan.from_spec("stall@1:2"), watchdog=dog
    )
    engine = _engine(graph, policy)
    faulted = pagerank(engine, iterations=4)
    assert np.array_equal(faulted.ranks, baseline.ranks)
    assert engine.journal.reexecutions == 1
    assert dog.overruns == {2: 1}
    assert any("escalation: retry" in line for line in engine.resilience_log)
    assert engine.store.num_partitions == 8  # no degradation needed


def test_repeated_stalls_escalate_to_requeue_then_degrade(graph):
    baseline = pagerank(_engine(graph), iterations=4)
    dog = Watchdog()
    policy = ResiliencePolicy(
        max_retries=6,
        fault_plan=FaultPlan.from_spec("stall@1:2,stall@1:2,stall@1:2"),
        watchdog=dog,
    )
    engine = _engine(graph, policy)
    faulted = pagerank(engine, iterations=4)
    assert np.array_equal(faulted.ranks, baseline.ranks)
    actions = [line.split(": ")[-1] for line in dog.log]
    assert actions == ["retry", "requeue", "degrade"]
    assert any("requeued partition 2" in line for line in engine.resilience_log)
    assert engine.store.num_partitions == 4  # the ladder ended in degradation
    assert dog.overruns == {}  # degradation reset the watchdog


def test_watchdog_without_stalls_changes_nothing(graph):
    baseline = pagerank(_engine(graph), iterations=4)
    policy = ResiliencePolicy(max_retries=2, watchdog=Watchdog())
    engine = _engine(graph, policy)
    watched = pagerank(engine, iterations=4)
    assert np.array_equal(watched.ranks, baseline.ranks)
    assert engine.resilience_log == []
