"""Kernel equivalence: every traversal layout must produce the same result
as the edge-at-a-time reference executor, for every operator family."""

import dataclasses
import sys
import weakref

import numpy as np
import pytest

from repro._types import NO_VERTEX, VID_DTYPE
from repro.algorithms.bellman_ford import BellmanFordOp, bellman_ford
from repro.algorithms.bfs import BFSOp, bfs
from repro.algorithms.cc import CCOp, connected_components
from repro.algorithms.pagerank import PageRankOp
from repro.algorithms.spmv import spmv
from repro.core.engine import Engine
from repro.core.options import EngineOptions
from repro.core.plan import TASK_EDGES
from repro.frontier.frontier import Frontier
from repro.graph import generators as gen
from repro.graph.weights import WeightFn
from repro.layout.coo import EDGE_ORDERS
from repro.layout.store import GraphStore
from tests.references import reference_edge_map

LAYOUTS = ["pcsr", "csc", "coo"]


def _engine(graph, layout, partitions=5):
    store = GraphStore.build(graph, num_partitions=partitions)
    return Engine(
        store, EngineOptions(num_threads=4, forced_layout=layout)
    )


@pytest.fixture(params=["paper", "rmat", "road"])
def graph(request, paper_graph, small_rmat, road):
    return {"paper": paper_graph, "rmat": small_rmat, "road": road}[request.param]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_cc_op_fixpoint_equivalence(graph, layout):
    """CC's min-propagation is asynchronous within a round, so only the
    fixpoint (not per-round state) is order-independent — chaotic
    iteration of a monotone operator has a unique least fixpoint."""
    labels_ref = np.arange(graph.num_vertices, dtype=VID_DTYPE)
    labels_got = labels_ref.copy()
    frontier = Frontier.full(graph.num_vertices)
    while not frontier.is_empty:
        frontier = reference_edge_map(graph, frontier, CCOp(labels_ref))
    engine = _engine(graph, layout)
    frontier = Frontier.full(graph.num_vertices)
    while not frontier.is_empty:
        frontier = engine.edge_map(frontier, CCOp(labels_got))
    assert np.array_equal(labels_ref, labels_got)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_pagerank_op_equivalence(graph, layout):
    n = graph.num_vertices
    deg = np.maximum(graph.out_degrees().astype(float), 1.0)
    contrib = np.linspace(1, 2, n) / deg
    accum_ref = np.zeros(n)
    accum_got = np.zeros(n)
    frontier = Frontier.full(n)
    reference_edge_map(graph, frontier, PageRankOp(contrib, accum_ref))
    op = PageRankOp(contrib, accum_got)
    with _engine(graph, layout) as engine:
        engine.edge_map(frontier, op)
        # A concurrent backend adopts a persistent operator's arrays as
        # shared-memory views: the operator's own array holds the result.
        assert np.allclose(accum_ref, op.accum)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_bfs_op_equivalence_fixpoint(graph, layout):
    """BFS parents may differ by tie-breaks, but levels/reachability and
    the next frontier must agree."""
    n = graph.num_vertices
    src = int(np.argmax(graph.out_degrees()))
    parent_ref = np.full(n, NO_VERTEX, dtype=VID_DTYPE)
    parent_got = parent_ref.copy()
    parent_ref[src] = src
    parent_got[src] = src
    frontier = Frontier.of(n, src)
    ref_next = reference_edge_map(graph, frontier, BFSOp(parent_ref))
    got_next = _engine(graph, layout).edge_map(frontier, BFSOp(parent_got))
    assert ref_next == got_next
    assert np.array_equal(parent_ref != NO_VERTEX, parent_got != NO_VERTEX)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_bellman_ford_op_equivalence(graph, layout):
    n = graph.num_vertices
    src = int(np.argmax(graph.out_degrees()))
    wf = WeightFn()
    dist_ref = np.full(n, np.inf)
    dist_got = dist_ref.copy()
    dist_ref[src] = dist_got[src] = 0.0
    frontier = Frontier.of(n, src)
    ref_next = reference_edge_map(graph, frontier, BellmanFordOp(dist_ref, wf))
    got_next = _engine(graph, layout).edge_map(frontier, BellmanFordOp(dist_got, wf))
    assert ref_next == got_next
    assert np.allclose(dist_ref, dist_got)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_sparse_frontier_fixpoint_equivalence(small_rmat, layout):
    labels_ref = np.arange(small_rmat.num_vertices, dtype=VID_DTYPE)
    labels_got = labels_ref.copy()
    frontier = Frontier.of(small_rmat.num_vertices, 0, 7, 13)
    while not frontier.is_empty:
        frontier = reference_edge_map(small_rmat, frontier, CCOp(labels_ref))
    engine = _engine(small_rmat, layout)
    frontier = Frontier.of(small_rmat.num_vertices, 0, 7, 13)
    while not frontier.is_empty:
        frontier = engine.edge_map(frontier, CCOp(labels_got))
    assert np.array_equal(labels_ref, labels_got)


@pytest.mark.parametrize("partitions", [1, 2, 7, 32])
def test_partition_count_does_not_change_fixpoint(small_rmat, partitions):
    results = []
    for layout in LAYOUTS:
        labels = np.arange(small_rmat.num_vertices, dtype=VID_DTYPE)
        engine = _engine(small_rmat, layout, partitions)
        frontier = Frontier.full(small_rmat.num_vertices)
        while not frontier.is_empty:
            frontier = engine.edge_map(frontier, CCOp(labels))
        results.append(labels)
    for other in results[1:]:
        assert np.array_equal(results[0], other)


def test_empty_frontier_returns_empty(engine):
    labels = np.arange(engine.num_vertices, dtype=VID_DTYPE)
    out = engine.edge_map(Frontier.empty(engine.num_vertices), CCOp(labels))
    assert out.is_empty
    assert len(engine.stats.edge_maps) == 0


def test_frontier_size_mismatch_rejected(engine):
    labels = np.arange(engine.num_vertices, dtype=VID_DTYPE)
    with pytest.raises(ValueError):
        engine.edge_map(Frontier.full(engine.num_vertices + 1), CCOp(labels))


def test_auto_mode_matches_forced_fixpoint(small_rmat):
    """Algorithm 2's auto dispatch must agree with any forced layout at
    the fixpoint."""
    store = GraphStore.build(small_rmat, num_partitions=5)
    results = []
    for forced in (None, "coo", "csc"):
        labels = np.arange(small_rmat.num_vertices, dtype=VID_DTYPE)
        eng = Engine(store, EngineOptions(num_threads=4, forced_layout=forced))
        f = Frontier.full(small_rmat.num_vertices)
        while not f.is_empty:
            f = eng.edge_map(f, CCOp(labels))
        results.append(labels)
    for other in results[1:]:
        assert np.array_equal(results[0], other)


def test_dense_phase_np_unique_calls_do_not_grow_with_tasks(monkeypatch):
    """A guard on counts, not time: partition tasks and the frontier fold
    count and dedup destinations inside their own vertex range
    (``repro.frontier.distinct``), so one dense PageRank phase calls
    ``np.unique`` no more often at P=48 than at P=12 — and not at all from
    the kernels or ``Frontier`` — while the statistics and the frontier it
    returns are what plain ``np.unique`` computes."""
    graph = gen.rmat(10, 16, seed=3)
    n = graph.num_vertices
    contrib = np.linspace(1, 2, n) / np.maximum(graph.out_degrees(), 1)
    real_unique = np.unique
    callers: dict[int, list[str]] = {}

    def counting_unique(*args, **kwargs):
        callers[p].append(sys._getframe(1).f_globals["__name__"])
        return real_unique(*args, **kwargs)

    for p in (12, 48):
        callers[p] = []
        store = GraphStore.build(graph, num_partitions=p)
        engine = Engine(store, EngineOptions(num_threads=2, backend="serial"))
        with monkeypatch.context() as patch:
            patch.setattr(np, "unique", counting_unique)
            nxt = engine.edge_map(Frontier.full(n), PageRankOp(contrib, np.zeros(n)))
        (phase,) = engine.stats.edge_maps
        assert (phase.layout, phase.num_partitions) == ("coo", p)
        bounds, dst = store.coo.partition_index, store.coo.dst
        touched = [np.unique(dst[bounds[i]:bounds[i + 1]]).size for i in range(p)]
        assert phase.partition_touched_vertices.tolist() == touched
        assert np.array_equal(nxt.as_sparse(), np.unique(dst))
        assert nxt.as_sparse().dtype == VID_DTYPE
    assert callers[48] == callers[12] == []


def test_later_full_frontier_pagerank_phases_fold_nothing(monkeypatch):
    """Counts, not time: ``PageRankOp`` hands every batch's ``dst`` back, so
    a full-frontier COO phase activates exactly the vertices with an
    in-edge.  The first such phase builds that frontier; every later one
    returns the *same* object without one ``np.concatenate`` (kernel or
    fold) or ``sorted_distinct`` — while ``updated_vertices`` and the
    frontier are what the fold used to compute."""
    from repro.frontier import frontier as frontier_module

    graph = gen.rmat(12, 16, seed=3)  # 48 partitions in two runs: concatenation was real
    n = graph.num_vertices
    store = GraphStore.build(graph, num_partitions=48)
    engine = Engine(store, EngineOptions(num_threads=2, backend="serial"))
    op = PageRankOp(np.linspace(1, 2, n), np.zeros(n))
    first = engine.edge_map(Frontier.full(n), op)
    assert len(engine._per_store["coo", TASK_EDGES]) < 48

    calls: list[str] = []
    real_concatenate, real_distinct = np.concatenate, frontier_module.sorted_distinct

    def counting(real, label):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"].startswith("repro."):
                calls.append(label)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "concatenate", counting(real_concatenate, "concatenate"))
    monkeypatch.setattr(
        frontier_module, "sorted_distinct", counting(real_distinct, "sorted_distinct")
    )
    for _ in range(3):
        assert engine.edge_map(Frontier.full(n), op) is first
    assert calls == []
    assert first == Frontier(n, sparse=store.coo.dst)  # counted, and now it dedups
    assert calls == ["sorted_distinct"]
    want = np.unique(store.coo.dst)
    assert np.array_equal(first.as_sparse(), want)
    assert [m.updated_vertices for m in engine.stats.edge_maps] == [want.size] * 4


def test_sparse_phases_call_np_unique_only_from_bfs_op(monkeypatch):
    """Counts, not time: operators return raw ids and the frontier fold
    sorts them once, so BFS + Bellman-Ford + CC over a road lattice reach
    ``np.unique`` from ``BFSOp`` alone (its first-writer store needs
    distinct ids), at most once per operator call — one a sparse phase,
    one per partition otherwise — and never from the fold."""
    graph = gen.road_grid(30)
    store = GraphStore.build(graph, num_partitions=8)
    engine = Engine(store, EngineOptions(num_threads=2, backend="serial"))
    real_unique = np.unique
    callers: list[str] = []

    def counting_unique(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    tree = bfs(engine, 0)
    op_calls = sum(
        1 if m.layout == "csr" else m.num_partitions for m in tree.stats.edge_maps
    )
    assert set(callers) == {"repro.algorithms.bfs"}
    assert 30 <= len(callers) <= op_calls
    del callers[:]
    paths = bellman_ford(engine, 0)
    components = connected_components(engine)
    assert callers == []
    assert len(paths.stats.edge_maps) >= 30 and components.iterations >= 30
    assert {m.layout for m in paths.stats.edge_maps} >= {"csr"}
    assert np.array_equal(tree.level >= 0, paths.reached())


def test_a_full_frontier_pagerank_phase_calls_the_operator_once_per_run(monkeypatch):
    """Counts, not time: at P=384 one full-frontier PageRank phase makes
    one ``process_edges`` call per task (PageRankOp is edge-local), a CC
    phase one per partition (it reads what it writes) — and the guard
    counter still counts partitions, as with merging switched off."""
    from repro.analysis import certificate

    graph = gen.rmat(12, 16, seed=3)
    n = graph.num_vertices
    store = GraphStore.build(graph, num_partitions=384)
    calls: list[str] = []
    for cls in (PageRankOp, CCOp):
        def counting(op, src, dst, real=cls.process_edges):
            calls.append(type(op).__name__)
            return real(op, src, dst)

        monkeypatch.setattr(cls, "process_edges", counting)

    def phase(op):
        del calls[:]
        with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
            engine.edge_map(Frontier.full(n), op)
            tasks = engine._per_store["coo", TASK_EDGES]
            return len(calls), len(tasks), engine.guards_skipped

    merged, tasks, skipped = phase(PageRankOp(np.linspace(1, 2, n), np.zeros(n)))
    assert merged == tasks < 384 and skipped == 384
    assert phase(CCOp(np.arange(n, dtype=VID_DTYPE)))[::2] == (384, 384)
    report = certificate.operator_report(PageRankOp)
    monkeypatch.setitem(
        certificate._CLASS_CACHE, PageRankOp, dataclasses.replace(report, edge_local=False)
    )
    assert phase(PageRankOp(np.linspace(1, 2, n), np.zeros(n))) == (384, tasks, skipped)


# ----------------------------------------------------------------------
# edge weights are layout data: hashed once per store, one slot per layout
# ----------------------------------------------------------------------
def _weight_keys(engine) -> list:
    return [key for key in engine._per_store if key[0] == "weights"]


@pytest.mark.parametrize("partitions", [1, 3, 384])
@pytest.mark.parametrize("edge_order", EDGE_ORDERS)
def test_cached_weights_are_the_weight_fn_of_the_layouts_own_edges(edge_order, partitions):
    """Over more than ``TASK_EDGES`` edges, so the cache is built in chunks."""
    graph = gen.rmat(12, 16, seed=4)
    assert graph.num_edges > TASK_EDGES
    store = GraphStore.build(graph, num_partitions=partitions, edge_order=edge_order)
    wf = WeightFn(low=0.5, high=3.0, seed=9)
    source = int(np.argmax(store.out_degrees))
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        spmv(engine, weight_fn=wf)  # one dense COO phase: the COO's weights
        paths = bellman_ford(engine, source, weight_fn=wf)  # sparse phases: the CSR's
        assert paths.stats.edge_maps[0].layout == "csr"
        coo_fn, coo_w = engine._per_store["weights", "coo"]
        csr_fn, csr_w = engine._per_store["weights", "csr"]
        assert sorted(_weight_keys(engine)) == [("weights", "coo"), ("weights", "csr")]
    csr = store.csr
    assert coo_fn is csr_fn is wf
    assert coo_w.dtype == csr_w.dtype == np.float64
    assert coo_w.tobytes() == wf(store.coo.src, store.coo.dst).tobytes()
    assert csr_w.tobytes() == wf(csr.edge_sources(), csr.neighbors).tobytes()


def test_an_equal_weight_fn_reuses_the_slot_and_another_replaces_it():
    store = GraphStore.build(gen.rmat(8, 8.0, seed=5), num_partitions=12)
    assert WeightFn(seed=3) == WeightFn(seed=3) and hash(WeightFn(seed=3)) == hash(WeightFn(seed=3))
    assert WeightFn(1, 2, 3) == WeightFn(np.float32(1), 2.0, np.int64(3))  # fields are coerced
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        first = spmv(engine, weight_fn=WeightFn(seed=3)).y
        cached = engine._per_store["weights", "coo"][1]
        again = spmv(engine, weight_fn=WeightFn(seed=3)).y
        assert engine._per_store["weights", "coo"][1] is cached
        replaced = weakref.ref(cached)
        del cached
        other = spmv(engine, weight_fn=WeightFn(seed=4)).y
        assert _weight_keys(engine) == [("weights", "coo")]
        assert engine._per_store["weights", "coo"][0] == WeightFn(seed=4)
        assert replaced() is None  # at most one array per layout stays resident
    assert first.tobytes() == again.tobytes() and not np.array_equal(first, other)


def test_close_releases_the_weight_cache_and_a_closed_engine_rebuilds_it():
    store = GraphStore.build(gen.rmat(8, 8.0, seed=5), num_partitions=12)
    wf = WeightFn(seed=1)
    engine = Engine(store, EngineOptions(num_threads=2, backend="serial"))
    want = spmv(engine, weight_fn=wf).y
    cached = weakref.ref(engine._per_store["weights", "coo"][1])
    engine.close()
    assert cached() is None and engine._per_store == {}
    got = spmv(engine, weight_fn=wf).y
    assert _weight_keys(engine) == [("weights", "coo")]
    assert got.tobytes() == want.tobytes()
    engine.close()


class _Float32Weights:
    """A custom weight function returning float32, not float64."""

    def __call__(self, src, dst):
        return WeightFn(seed=7)(src, dst).astype(np.float32)


def test_a_float32_weight_fn_gives_the_same_spmv_in_process_and_on_workers():
    store = GraphStore.build(gen.rmat(8, 8.0, seed=5), num_partitions=12)
    results, dispatched = [], []
    for backend in ("serial", "process:workers=2"):
        with Engine(store, EngineOptions(num_threads=2, backend=backend)) as engine:
            results.append(spmv(engine, weight_fn=_Float32Weights()).y.tobytes())
            assert engine.backend_stats.fallbacks == 0  # a worker's batch was not refused
            dispatched.append(engine.backend_stats.batches_dispatched)
    assert results[0] == results[1] and dispatched[0] == 0 < dispatched[1]
