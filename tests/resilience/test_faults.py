"""The fault-injection matrix (ISSUE 1 acceptance criterion).

For every fault class — worker crash, partition-task failure, injected
OOM, corrupted checkpoint, truncated input — a seeded run must either
recover and produce **bit-identical final vertex values** to the
fault-free run (points of the lattice, :mod:`tests.lattice`), or raise a
typed :class:`~repro.errors.ReproError` subclass.  Never a silent wrong
answer.
"""

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.core import Engine, EngineOptions
from repro.errors import (
    CapacityError,
    ReproError,
    RetryExhausted,
    ValidationError,
    WorkerFailure,
)
from repro.graph.io import load_text
from repro.layout import GraphStore
from repro.resilience import FaultEvent, FaultPlan, ResiliencePolicy
from tests.lattice import Config, check

pytestmark = pytest.mark.faultinjection


def _engine(edges, resilience=None, partitions=8):
    store = GraphStore.build(edges, num_partitions=partitions)
    return Engine(store, EngineOptions(num_threads=4), resilience=resilience)


def _policy(spec, retries=4):
    return ResiliencePolicy(max_retries=retries, fault_plan=FaultPlan.from_spec(spec))


# ----------------------------------------------------------------------
# transient faults (crash / partition-task): recovery is exactly
# bit-identical because the rolled-back phase re-executes unchanged
# ----------------------------------------------------------------------
TRANSIENT_FAULTS = [
    "worker_crash@0",
    "worker_crash@2",
    "partition@1:0",
    "partition@2:3",
    "worker_crash@1,partition@2:1,worker_crash@3",
]


@pytest.mark.parametrize("spec", TRANSIENT_FAULTS)
def test_bfs_recovers_bit_identical(spec):
    check(Config("BFS", "small_rmat", faults=spec))


@pytest.mark.parametrize("spec", TRANSIENT_FAULTS)
def test_pagerank_recovers_bit_identical(spec):
    faulted = check(Config("PR", "small_rmat", faults=spec)).result
    assert faulted.last_delta == check(Config("PR", "small_rmat")).result.last_delta


@pytest.mark.parametrize("spec", ["worker_crash@1", "partition@1:2"])
def test_cc_recovers_bit_identical(spec):
    faulted = check(Config("CC", "small_symmetric", faults=spec))
    assert len(faulted.rows) == len(check(Config("CC", "small_symmetric")).rows)


# ----------------------------------------------------------------------
# injected OOM: the degradation ladder halves the partition count; the
# min-plus algorithms stay bit-identical under any partitioning
# ----------------------------------------------------------------------
def test_oom_degrades_and_cc_stays_bit_identical():
    obs = check(Config("CC", "small_symmetric", faults="oom@1"))
    assert obs.partitions == 4  # halved from 8
    assert any("degraded partitions 8 -> 4" in line for line in obs.log)


def test_oom_degrades_and_bellman_ford_stays_bit_identical():
    assert check(Config("BF", "small_rmat", faults="oom@0")).partitions == 4


def test_oom_degrades_and_bfs_levels_stay_bit_identical():
    assert check(Config("BFS", "small_rmat", faults="oom@1")).partitions == 4


def test_repeated_oom_bottoms_at_one_partition(small_rmat):
    # The floor is p=1; without spill opt-in the ladder parks
    # there and retries (no grid, no further degradation).
    plan = FaultPlan([FaultEvent("oom", 0) for _ in range(4)])
    policy = ResiliencePolicy(max_retries=8, fault_plan=plan)
    engine = _engine(small_rmat, policy)
    faulted = pagerank(engine, iterations=2)
    assert engine.store.num_partitions == 1  # 8 -> 4 -> 2 -> 1
    assert engine.grid is None
    assert any("cannot degrade below 1" in line for line in engine.resilience_log)
    baseline = pagerank(_engine(small_rmat), iterations=2)
    assert np.array_equal(faulted.ranks, baseline.ranks)


# ----------------------------------------------------------------------
# exhaustion and unsupervised runs die with typed errors, never silently
# ----------------------------------------------------------------------
def test_exhausted_retries_raise_typed_error(small_rmat):
    plan = FaultPlan([FaultEvent("worker_crash", 0), FaultEvent("worker_crash", 0)])
    policy = ResiliencePolicy(max_retries=1, fault_plan=plan)
    with pytest.raises(RetryExhausted) as info:
        bfs(_engine(small_rmat, policy), 0)
    assert isinstance(info.value, ReproError)
    assert isinstance(info.value.__cause__, WorkerFailure)


def test_unretried_oom_is_typed(small_rmat):
    policy = ResiliencePolicy(max_retries=0, fault_plan=FaultPlan.from_spec("oom@0"))
    with pytest.raises(RetryExhausted) as info:
        pagerank(_engine(small_rmat, policy), iterations=2)
    assert isinstance(info.value.__cause__, CapacityError)


def test_truncated_input_file_is_typed(tmp_path):
    path = tmp_path / "truncated.txt"
    path.write_text("# vertices 10 edges 3\n0 1\n2 8\n9")  # last row cut mid-edge
    with pytest.raises(ReproError):
        load_text(path)


def test_out_of_range_row_is_typed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# vertices 4 edges 2\n0 1\n2 9\n")
    with pytest.raises(ValidationError):
        load_text(path)


# ----------------------------------------------------------------------
# deterministic seeding
# ----------------------------------------------------------------------
def test_random_plan_is_deterministic():
    a = FaultPlan.random(42, iterations=10, num_faults=4)
    b = FaultPlan.random(42, iterations=10, num_faults=4)
    assert a.to_spec() == b.to_spec()
    assert FaultPlan.random(43, iterations=10, num_faults=4).to_spec() != a.to_spec()


def test_seeded_random_plan_recovery_matches_baseline(small_rmat):
    baseline = pagerank(_engine(small_rmat), iterations=6)
    plan = FaultPlan.random(
        7, iterations=6, num_faults=2, kinds=("worker_crash", "partition")
    )
    policy = ResiliencePolicy(max_retries=4, fault_plan=plan)
    faulted = pagerank(_engine(small_rmat, policy), iterations=6)
    assert np.array_equal(faulted.ranks, baseline.ranks)


def test_spec_roundtrip():
    spec = "worker_crash@2,partition@3:1,oom@4,corrupt_checkpoint@5"
    assert FaultPlan.from_spec(spec).to_spec() == spec


@pytest.mark.parametrize(
    "bad",
    [
        "nonsense",
        "worker_crash",
        "oom@x",
        "corrupt_checkpoint@2:1",  # storage faults take no partition
        "stall@2",  # stalls are per-partition by definition
        "partition@1",
    ],
)
def test_bad_specs_rejected(bad):
    with pytest.raises(ValueError):
        FaultPlan.from_spec(bad)


def test_bad_specs_raise_typed_validation_error():
    with pytest.raises(ValidationError):
        FaultPlan.from_spec("lost_replica@3:0")


def test_partition_scoped_crash_and_oom_specs_are_legal():
    spec = "worker_crash@2:1,oom@3:0,stall@4:2"
    assert FaultPlan.from_spec(spec).to_spec() == spec


def test_plan_validate_rejects_out_of_range_partition():
    plan = FaultPlan.from_spec("partition@1:6")
    assert plan.validate(num_partitions=8) is plan
    with pytest.raises(ValidationError):
        plan.validate(num_partitions=4)


def test_plan_validate_rejects_mutated_unknown_kind():
    plan = FaultPlan.from_spec("worker_crash@1")
    plan.events[0].kind = "wroker_crash"  # mutation bypasses the constructor
    with pytest.raises(ValidationError):
        plan.validate()


def test_engine_rejects_plan_targeting_missing_partition(small_rmat):
    policy = ResiliencePolicy(fault_plan=FaultPlan.from_spec("partition@0:12"))
    with pytest.raises(ValidationError):
        _engine(small_rmat, policy, partitions=8)


# ----------------------------------------------------------------------
# names that are not fault kinds (the retired network kinds among them)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bad",
    [
        "net_timeout@0:1",
        "net_reset@2:0",
        "net_throttle@1:3",
        "stale_read@4:2",
        "net_lag@1",
    ],
)
def test_net_fault_specs_reject_partition_suffix_and_unknown_kinds(bad):
    with pytest.raises(ValidationError, match=f"unknown fault kind {bad.split('@')[0]!r}"):
        FaultPlan.from_spec(bad)


def test_plan_reset_rearms_events(small_rmat):
    plan = FaultPlan.from_spec("worker_crash@0")
    policy = ResiliencePolicy(max_retries=2, fault_plan=plan)
    bfs(_engine(small_rmat, policy), 0)
    assert not plan.pending()
    plan.reset()
    assert len(plan.pending()) == 1
