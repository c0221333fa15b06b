"""Integration tests: the full pipeline from generator to cost model."""

import numpy as np
import pytest

from repro import Engine, EngineOptions, GraphStore, datasets
from repro.algorithms import registry
from repro.core.stats import stats_of
from repro.machine.cost import CostModel, profile_store
from repro.machine.spec import MachineSpec


@pytest.fixture(scope="module")
def tiny_twitter():
    return datasets.load("twitter", scale=0.12)


@pytest.mark.parametrize("code", registry.names())
def test_every_algorithm_end_to_end(code, tiny_twitter):
    """Dataset -> store -> engine -> algorithm -> stats -> simulated time."""
    spec = registry.get(code)
    store = GraphStore.build(tiny_twitter, num_partitions=16, balance=spec.balance)
    engine = Engine(store, EngineOptions(num_threads=8))
    result = spec.run(engine)
    stats = stats_of(result)
    assert stats.num_iterations >= 1
    machine = MachineSpec().scaled_for(tiny_twitter.num_vertices)
    model = CostModel(machine, num_threads=8)
    profile = profile_store(store, num_threads=8)
    t = model.run_time_seconds(stats, profile, update_scale=spec.update_scale)
    assert t > 0.0
    assert np.isfinite(t)


def test_io_roundtrip_through_pipeline(tmp_path, tiny_twitter):
    from repro.algorithms import pagerank
    from repro.graph.io import load_npz, save_npz

    path = tmp_path / "twitter.npz"
    save_npz(path, tiny_twitter)
    loaded = load_npz(path)
    r1 = pagerank(Engine(GraphStore.build(tiny_twitter, num_partitions=8)))
    r2 = pagerank(Engine(GraphStore.build(loaded, num_partitions=8)))
    assert np.allclose(r1.ranks, r2.ranks)


def test_bc_runs_via_workbench(tiny_twitter):
    from repro.bench.harness import Workbench

    wb = Workbench(
        edges=tiny_twitter,
        machine=MachineSpec().scaled_for(tiny_twitter.num_vertices),
        num_threads=8,
    )
    t = wb.run_layout("BC", num_partitions=16, forced_layout=None)
    assert t > 0


def test_all_systems_run_all_algorithms(tiny_twitter):
    from repro.bench.harness import Workbench
    from repro.baselines.systems import SYSTEMS

    wb = Workbench(
        edges=tiny_twitter,
        machine=MachineSpec().scaled_for(tiny_twitter.num_vertices),
        num_threads=8,
    )
    for sys_key in SYSTEMS:
        t = wb.run_system(sys_key, "CC", default_partitions=32)
        assert t > 0


def test_deterministic_across_runs(tiny_twitter):
    from repro.algorithms import pagerank_delta

    store = GraphStore.build(tiny_twitter, num_partitions=16)
    a = pagerank_delta(Engine(store), epsilon=1e-6)
    b = pagerank_delta(Engine(store), epsilon=1e-6)
    assert np.array_equal(a.ranks, b.ranks)
    assert a.iterations == b.iterations
