"""PageRank correctness against networkx and against the whole-array formula."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.pagerank import pagerank
from repro.core import Engine, EngineOptions
from repro.frontier.density import DensityClass
from repro.graph import generators as gen
from repro.graph.edgelist import EdgeList
from repro.layout import GraphStore
from repro.resilience.checkpoint import CheckpointManager, CheckpointSession
from tests.references import reference_pagerank


def test_matches_networkx(small_rmat, engine):
    r = pagerank(engine, iterations=200, tolerance=1e-13)
    G = nx.DiGraph(small_rmat.to_pairs())
    G.add_nodes_from(range(small_rmat.num_vertices))
    expected = nx.pagerank(G, alpha=0.85, max_iter=300, tol=1e-13)
    got = r.ranks
    assert max(abs(got[v] - expected[v]) for v in G) < 1e-9


def test_ranks_sum_to_one(engine):
    r = pagerank(engine, iterations=50)
    assert r.ranks.sum() == pytest.approx(1.0, abs=1e-9)


def test_ranks_positive(engine):
    r = pagerank(engine, iterations=20)
    assert np.all(r.ranks > 0)


def test_fixed_iterations_default_ten(engine):
    r = pagerank(engine)
    assert r.iterations == 10
    # PR keeps the frontier dense: every round is a dense edge map.
    hist = r.stats.density_histogram()
    assert hist[DensityClass.DENSE] == 10


def test_early_stop_with_tolerance(engine):
    r = pagerank(engine, iterations=500, tolerance=1e-10)
    assert r.iterations < 500
    assert r.last_delta < 1e-10


def test_cycle_uniform_ranks():
    g = gen.cycle(8)
    eng = Engine(GraphStore.build(g, num_partitions=2))
    r = pagerank(eng, iterations=100)
    assert np.allclose(r.ranks, 1 / 8, atol=1e-9)


def test_star_hub_receives_no_rank_mass():
    # Star: leaves have no out-edges except via dangling redistribution.
    g = gen.star(5)
    eng = Engine(GraphStore.build(g, num_partitions=1))
    r = pagerank(eng, iterations=100)
    # Leaves all symmetric.
    assert np.allclose(r.ranks[1:], r.ranks[1], atol=1e-12)


def test_dangling_disabled_leaks_mass():
    g = gen.star(5)
    eng = Engine(GraphStore.build(g, num_partitions=1))
    r = pagerank(eng, iterations=100, handle_dangling=False)
    assert r.ranks.sum() < 1.0


def test_same_result_across_layouts(small_rmat):
    results = []
    for layout in (None, "coo", "csc", "pcsr"):
        store = GraphStore.build(small_rmat, num_partitions=6)
        eng = Engine(store, EngineOptions(num_threads=4, forced_layout=layout))
        results.append(pagerank(eng, iterations=10).ranks)
    for other in results[1:]:
        assert np.allclose(results[0], other, atol=1e-12)


# ----------------------------------------------------------------------
# the vertex side runs in place over the operator's arrays: the same
# ranks and delta as the whole-array formula, with no full-length temporary
# ----------------------------------------------------------------------
def _without_dangling(edges):
    """``edges`` plus the cycle ``v -> v + 1``: every vertex has an out-edge."""
    ring = np.arange(edges.num_vertices)
    return EdgeList(
        edges.num_vertices,
        np.concatenate([edges.src, ring]),
        np.concatenate([edges.dst, (ring + 1) % edges.num_vertices]),
    )


@pytest.mark.parametrize("dangling", [True, False], ids=["dangling", "no-dangling"])
@pytest.mark.parametrize("handle_dangling", [True, False])
@pytest.mark.parametrize("backend", ["serial", "threads:workers=2"])
@pytest.mark.parametrize("partitions", [1, 16])
def test_in_place_vertex_side_is_bit_identical_to_the_formula(
    small_rmat, partitions, backend, handle_dangling, dangling
):
    graph = small_rmat if dangling else _without_dangling(small_rmat)
    store = GraphStore.build(graph, num_partitions=partitions)
    assert bool((store.out_degrees == 0).any()) == dangling
    with Engine(store, EngineOptions(num_threads=4, backend=backend)) as eng:
        want_ranks, want_delta = reference_pagerank(eng, handle_dangling=handle_dangling)
        got = pagerank(eng, handle_dangling=handle_dangling)
    assert np.array_equal(got.ranks, want_ranks)
    assert got.last_delta == want_delta


def test_a_resumed_run_is_bit_identical_to_the_formula(small_rmat, tmp_path):
    eng = Engine(GraphStore.build(small_rmat, num_partitions=16))
    pagerank(eng, iterations=4, checkpoint=CheckpointSession(CheckpointManager(tmp_path), "pr"))
    session = CheckpointSession(CheckpointManager(tmp_path), "pr", resume=True)
    got = pagerank(eng, checkpoint=session)
    assert got.stats.num_iterations == 6  # resumed after iteration 4
    want_ranks, want_delta = reference_pagerank(eng)
    assert np.array_equal(got.ranks, want_ranks)
    assert got.last_delta == want_delta


@pytest.mark.parametrize("iterations", [1, 2, 10])
def test_an_iteration_allocates_no_full_length_temporary(iterations):
    eng = Engine(GraphStore.build(gen.rmat(12, seed=5), num_partitions=16))
    pagerank(eng, iterations=iterations)  # warm: the engine's plans and caches are built
    tracemalloc.start()
    try:
        pagerank(eng, iterations=iterations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # out_deg, safe_deg, ranks and the operator's two arrays, plus the
    # dangling ids and the engine's per-call bookkeeping
    assert peak < 6.5 * eng.num_vertices * 8
