"""Kernel equivalence — every traversal layout agrees with the oracle
(:mod:`tests.lattice`) — and what the kernels cost: ``np.unique`` and
operator calls per phase, and the per-store weight cache."""

import collections
import sys
import weakref
from functools import partial

import numpy as np
import pytest

from repro._types import NO_VERTEX, VID_DTYPE
from repro.algorithms.bellman_ford import BellmanFordOp, bellman_ford
from repro.algorithms.bfs import BFSOp, bfs
from repro.algorithms.cc import CCOp, connected_components
from repro.algorithms.pagerank import PageRankOp
from repro.algorithms.spmv import spmv
from repro.core import engine as engine_module
from repro.core.engine import Engine
from repro.core.options import EngineOptions
from repro.core.plan import TASK_EDGES
from repro.frontier.frontier import Frontier
from repro.graph import generators as gen
from repro.graph.edgelist import EdgeList
from repro.graph.weights import WeightFn
from repro.layout.coo import EDGE_ORDERS
from repro.layout.grid import GridStore
from repro.layout.store import GraphStore
from tests import lattice
from tests.lattice import Config, check
from tests.references import reference_edge_map

LAYOUTS = ["pcsr", "csc", "coo"]


# ----------------------------------------------------------------------
# every forced layout, partition count and Algorithm 2 itself agree with
# the oracle: points of the lattice (tests/lattice.py)
# ----------------------------------------------------------------------
@pytest.fixture(params=["paper", "rmat", "road"])
def graph(request):
    return {"paper": "paper", "rmat": "small_rmat", "road": "road12"}[request.param]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_cc_op_fixpoint_equivalence(graph, layout):
    check(Config("CC", graph, 5, forced_layout=layout))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_pagerank_op_equivalence(graph, layout):
    check(Config("PR", graph, 5, forced_layout=layout))


def _first_round(name, layout, op, unreached, reached):
    """One edge-map from the highest-out-degree vertex, through the engine
    at P = 5 and the edge-at-a-time reference: the same next frontier.
    Returns both operators' state arrays."""
    edges = lattice.graph(name)
    n, src = edges.num_vertices, int(np.argmax(edges.out_degrees()))
    state = [np.full(n, unreached), np.full(n, unreached)]
    for a in state:
        a[src] = src if reached is None else reached
    frontier = Frontier.of(n, src)
    want = reference_edge_map(edges, frontier, op(state[0]))
    store = GraphStore.build(edges, num_partitions=5)
    with Engine(store, EngineOptions(num_threads=4, forced_layout=layout)) as engine:
        assert engine.edge_map(frontier, op(state[1])) == want
    return state


@pytest.mark.parametrize("layout", LAYOUTS)
def test_bfs_op_equivalence_fixpoint(graph, layout):
    """BFS parents may differ by tie-breaks within a round, but the next
    frontier and reachability agree; whole runs agree with the oracle."""
    check(Config("BFS", graph, 5, forced_layout=layout))
    want, got = _first_round(graph, layout, BFSOp, NO_VERTEX, None)
    assert np.array_equal(want != NO_VERTEX, got != NO_VERTEX)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_bellman_ford_op_equivalence(graph, layout):
    check(Config("BF", graph, 5, forced_layout=layout))
    want, got = _first_round(graph, layout, partial(BellmanFordOp, weight_fn=WeightFn()),
                             np.inf, 0.0)
    assert np.allclose(want, got)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_sparse_frontier_fixpoint_equivalence(layout):
    check(Config("BF", "small_rmat", 5, forced_layout=layout, sparse_layout="pcsr"))


@pytest.mark.parametrize("partitions", [1, 2, 7, 32])
def test_partition_count_does_not_change_fixpoint(partitions):
    for layout in LAYOUTS:
        check(Config("CC", "small_rmat", partitions, forced_layout=layout))


def test_auto_mode_matches_forced_fixpoint():
    for forced in (None, "coo", "csc"):
        check(Config("CC", "small_rmat", 5, forced_layout=forced))


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


class _NoFancyIndex(np.ndarray):
    """A weight cache that refuses to be read through an index array."""

    def __getitem__(self, key):
        if isinstance(key, (np.ndarray, list)):
            raise AssertionError("the CSR weight cache was fancy-indexed")
        return super().__getitem__(key)


def test_a_sparse_round_reads_slice_lengths_and_gathers_weights_in_one_copy(monkeypatch):
    """A sparse round classifies its ids by their CSR slice lengths and
    hands those to its gather: BFS and Bellman-Ford over a road lattice
    never build ``store.out_degrees``, and the weights ride in the gather
    instead of being read at a position array."""
    store = GraphStore.build(gen.road_grid(30), num_partitions=8)
    wf = WeightFn(seed=5)
    weights = Engine._weights

    def guarded(engine, layout, weight_fn):
        w = weights(engine, layout, weight_fn)
        return w.view(_NoFancyIndex) if layout == "csr" else w

    monkeypatch.setattr(Engine, "_weights", guarded)
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        tree = bfs(engine, 0)
        paths = bellman_ford(engine, 0, weight_fn=wf)
        assert ("weights", "csr") in engine._per_store
    assert "out_degrees" not in vars(store)
    assert {m.layout for m in paths.stats.edge_maps} >= {"csr"}
    assert {m.layout for m in tree.stats.edge_maps} >= {"csr"}
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        assert paths.dist.tobytes() == bellman_ford(engine, 0, weight_fn=wf).dist.tobytes()
    assert "out_degrees" not in vars(store)


def test_a_sparse_round_is_one_kernel_call_through_the_engine_namespace(monkeypatch):
    """Counts, not time: a sparse CSR round builds no ``PhasePlan`` and calls
    the classification, the gather and the kernel exactly once each, as
    bound on ``repro.core.engine`` (the names the e2e tracer wraps), and
    adds its one guard to ``guards_skipped`` — or, with the declaration
    withdrawn, to ``guard_invocations``."""
    from repro.core import engine as engine_module

    calls: collections.Counter = collections.Counter()
    for name in ("PhasePlan", "classify_frontier", "gather_adjacency", "run_csr_sparse_partition"):
        def counting(*args, real=getattr(engine_module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, name, counting)
    rounds = []
    edge_map = Engine.edge_map

    def one_round(engine, frontier, op):
        before = collections.Counter(calls), engine.guards_skipped, engine.guard_invocations
        out = edge_map(engine, frontier, op)
        rounds.append((
            engine.stats.edge_maps[-1].layout, dict(calls - before[0]),
            engine.guards_skipped - before[1], engine.guard_invocations - before[2],
        ))
        return out

    monkeypatch.setattr(Engine, "edge_map", one_round)
    store = GraphStore.build(gen.road_grid(30), num_partitions=8)
    one_each = {"classify_frontier": 1, "gather_adjacency": 1, "run_csr_sparse_partition": 1}
    for guards in ((1, 0), (0, 1)):
        if guards == (0, 1):
            for cls in (BFSOp, BellmanFordOp):
                monkeypatch.setattr(cls, "writes", None)
        del rounds[:]
        with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
            bfs(engine, 0)
            bellman_ford(engine, 0)
        sparse = [r[1:] for r in rounds if r[0] == "csr"]
        assert len(sparse) >= 60
        assert sparse == [(one_each, *guards)] * len(sparse)


def test_a_full_frontier_pagerank_phase_calls_the_operator_once_per_run(monkeypatch):
    """Counts, not time: at P=384 one full-frontier PageRank phase makes
    one ``process_edges`` call per task (PageRankOp is edge-local), a CC
    phase one per partition (it reads what it writes) — and the guard
    counter still counts partitions, as with merging switched off."""
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
    monkeypatch.setattr(PageRankOp, "edge_local", False)
    assert phase(PageRankOp(np.linspace(1, 2, n), np.zeros(n))) == (384, tasks, skipped)


class _BatchSpyCCOp(CCOp):
    """CCOp that keeps every non-empty batch it is handed, as ``(src, dst)``."""

    def __init__(self, labels):
        super().__init__(labels)
        self.batches = []

    def process_edges(self, src, dst):
        if dst.size:
            self.batches.append((src, dst))
        return super().process_edges(src, dst)


def _cc_batches_per_phase(engine):
    """CC to its fixpoint under the spy: each phase's batches.  Only the
    first phase has a full frontier (vertex 0's label never drops)."""
    n = engine.num_vertices
    op, frontier, phases = _BatchSpyCCOp(np.arange(n, dtype=VID_DTYPE)), Frontier.full(n), []
    while not frontier.is_empty:
        op.batches = []
        frontier = engine.edge_map(frontier, op)
        phases.append(op.batches)
        assert len(phases) == 1 or frontier.size < n
    assert engine.guards_skipped > 0 and engine.guard_invocations == 0  # CCOp's path
    return phases


def test_a_bitmap_run_hands_intp_ids_and_a_full_frontier_run_layout_views(tmp_path):
    """A COO or grid run with a bitmap compresses, so copies, its edges:
    every batch it hands the operator is ``intp``, numpy's own index width.
    A full-frontier COO run copies nothing: its batches stay zero-copy
    ``int32`` views of the layout (what the compiled add-reduction of
    PageRank and SPMV reads without a cast)."""
    # the spy only records: it inherits CCOp's declaration, so runs as CCOp would
    graph = gen.road_grid(30, seed=2)
    store = GraphStore.build(graph, num_partitions=8)
    options = EngineOptions(num_threads=2, backend="serial", forced_layout="coo")
    with Engine(store, options) as engine:
        phases = _cc_batches_per_phase(engine)
        assert {m.layout for m in engine.stats.edge_maps} == {"coo"}
    assert phases[0] and len(phases) >= 10
    for src, dst in phases[0]:
        assert src.dtype == dst.dtype == VID_DTYPE
        assert np.shares_memory(src, store.coo.src) and np.shares_memory(dst, store.coo.dst)
    partial_batches = [batch for batches in phases[1:] for batch in batches]
    assert len(partial_batches) >= 100
    assert {(s.dtype, d.dtype) for s, d in partial_batches} == {(np.dtype(np.intp),) * 2}

    grid = GridStore.build(graph, tmp_path / "grid", num_stripes=3, budget=8 << 10)
    with Engine(store, options, grid=grid) as engine:
        phases = _cc_batches_per_phase(engine)
        assert {m.layout for m in engine.stats.edge_maps} == {"grid"}
    assert grid.stats.block_reads > grid.num_stripes ** 2  # streamed from disk
    grid_batches = [batch for batches in phases[1:] for batch in batches]
    assert len(grid_batches) >= 10
    assert {(s.dtype, d.dtype) for s, d in grid_batches} == {(np.dtype(np.intp),) * 2}


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


def test_csr_weights_are_exact_across_chunk_edges(monkeypatch):
    """Chunks of 8 edges: vertex 1's slice ends on the first chunk edge,
    where zero-degree vertices 2 and 3 sit; hub 4's 30 edges start there and
    span four chunks, ending mid-chunk; vertices 5 and 8-9 have no edges."""
    monkeypatch.setattr(engine_module, "TASK_EDGES", 8)
    degrees = [5, 3, 0, 0, 30, 0, 2, 4, 0, 0]
    src = np.repeat(np.arange(len(degrees)), degrees).astype(VID_DTYPE)
    dst = (np.arange(src.size) * 7 % len(degrees)).astype(VID_DTYPE)
    store = GraphStore.build(EdgeList(len(degrees), src, dst), num_partitions=3)
    csr = store.csr
    assert csr.index[[2, 4, 5]].tolist() == [8, 8, 38]
    with Engine(store, EngineOptions(num_threads=1, backend="serial")) as engine:
        got = engine._weights("csr", WeightFn())
    assert got.tobytes() == WeightFn()(csr.edge_sources(), csr.neighbors).tobytes()


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
    for backend in ("serial", "threads:workers=2"):
        with Engine(store, EngineOptions(num_threads=2, backend=backend)) as engine:
            results.append(spmv(engine, weight_fn=_Float32Weights()).y.tobytes())
            assert engine.backend_stats.fallbacks == 0
            dispatched.append(engine.backend_stats.batches_dispatched)
    assert results[0] == results[1] and dispatched[0] == 0 < dispatched[1]
