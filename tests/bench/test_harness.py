"""Workbench / StoreCache harness tests."""

import numpy as np
import pytest

from repro.bench.harness import StoreCache, Workbench, force_atomics
from repro.core.stats import RunStats, stats_of
from repro.machine.spec import MachineSpec


@pytest.fixture(scope="module")
def cache():
    return StoreCache()


@pytest.fixture(scope="module")
def bench(cache):
    return Workbench.for_dataset("twitter", scale=0.12, num_threads=8, cache=cache)


def test_graph_memoised(cache):
    a = cache.graph("twitter", scale=0.12)
    b = cache.graph("twitter", scale=0.12)
    assert a is b
    c = cache.graph("twitter", scale=0.25)
    assert c is not a


def test_store_memoised(cache, bench):
    a = cache.store(bench.edges, num_partitions=8)
    b = cache.store(bench.edges, num_partitions=8)
    assert a is b
    c = cache.store(bench.edges, num_partitions=8, edge_order="hilbert")
    assert c is not a


def test_profile_memoised(cache, bench):
    store = cache.store(bench.edges, num_partitions=8)
    assert cache.profile(store) is cache.profile(store)


def test_machine_scaled_to_dataset(bench):
    paper = MachineSpec()
    assert bench.machine.llc_bytes_per_socket < paper.llc_bytes_per_socket


def test_run_layout_produces_positive_time(bench):
    for layout in (None, "coo", "csc", "pcsr"):
        t = bench.run_layout("PR", num_partitions=16, forced_layout=layout)
        assert t > 0


def test_atomics_on_never_faster(bench):
    plain = bench.run_layout("PR", num_partitions=16, forced_layout="coo")
    forced = bench.run_layout(
        "PR", num_partitions=16, forced_layout="coo", atomics="on"
    )
    assert forced >= plain


def test_run_system_all_four(bench):
    times = {k: bench.run_system(k, "PR", default_partitions=32) for k in
             ("ligra", "polymer", "gg1", "gg2")}
    assert all(t > 0 for t in times.values())
    assert times["gg2"] < times["ligra"]


def test_force_atomics_copies(bench):
    from repro.algorithms import pagerank
    from repro.core import Engine

    store = bench.cache.store(bench.edges, num_partitions=64)
    r = pagerank(Engine(store))
    forced = force_atomics(r.stats)
    assert all(s.uses_atomics for s in forced.edge_maps)
    # Original untouched.
    assert isinstance(r.stats, RunStats)
    assert any(not s.uses_atomics for s in r.stats.edge_maps)


def test_stats_of_rejects_junk():
    with pytest.raises(TypeError):
        stats_of(object())


# ----------------------------------------------------------------------
# fault-plan coverage: the harness can run every engine supervised
# ----------------------------------------------------------------------
def _crash_factory(built):
    from repro.resilience import FaultPlan, ResiliencePolicy

    def factory():
        policy = ResiliencePolicy(
            max_retries=4, fault_plan=FaultPlan.from_spec("worker_crash@1")
        )
        built.append(policy)
        return policy

    return factory


def test_resilience_factory_supervises_layout_runs(bench):
    plain = bench.run_layout("PR", num_partitions=16, forced_layout="coo")
    built = []
    supervised = Workbench(
        edges=bench.edges,
        machine=bench.machine,
        num_threads=8,
        cache=bench.cache,
        resilience_factory=_crash_factory(built),
    )
    faulted = supervised.run_layout("PR", num_partitions=16, forced_layout="coo")
    # recovery is bit-identical, so the modelled time is too
    assert faulted == plain
    # one fresh policy per engine build, and its fault actually fired
    assert len(built) == 1
    assert not built[0].fault_plan.pending()


def test_resilience_factory_supervises_system_runs(bench):
    plain = bench.run_system("ligra", "PR", default_partitions=32)
    built = []
    supervised = Workbench(
        edges=bench.edges,
        machine=bench.machine,
        num_threads=8,
        cache=bench.cache,
        resilience_factory=_crash_factory(built),
    )
    faulted = supervised.run_system("ligra", "PR", default_partitions=32)
    assert faulted == plain
    assert len(built) == 1 and not built[0].fault_plan.pending()


def test_process_wide_factory_is_the_default(bench):
    from repro.bench.harness import set_default_resilience_factory

    built = []
    set_default_resilience_factory(_crash_factory(built))
    try:
        wb = Workbench(
            edges=bench.edges,
            machine=bench.machine,
            num_threads=8,
            cache=bench.cache,
        )
        assert wb.run_layout("PR", num_partitions=16, forced_layout="coo") > 0
        assert len(built) == 1
    finally:
        set_default_resilience_factory(None)
