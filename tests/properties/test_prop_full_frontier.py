"""A phase whose frontier is every vertex does no frontier work — and
nobody can tell.

When ``frontier.size == num_vertices`` the engine's plan carries no
bitmap (:func:`repro.core.engine._frontier_filter`): the kernels gather
and compress nothing, hand the operator zero-copy slices of the layout's
own edge arrays, and a COO partition's (or grid block's) ``touched``
comes from the store's (or grid's) cached distinct-destination counts;
an operator that hands every such batch's ``dst`` back has activated
the vertices with an in-edge, and the fold looks that frontier up.  The masked
path — the same kernels handed a bitmap of all ``True`` — is what every
run took before, so forcing it (patching the helper to always return
the bitmap) gives the reference: result arrays, every ``EdgeMapStats``
field and both guard counters must be the same.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import VID_DTYPE
from repro.algorithms import registry
from repro.algorithms.bellman_ford import bellman_ford
from repro.algorithms.cc import CCOp
from repro.algorithms.pagerank import PageRankOp, pagerank
from repro.algorithms.spmv import spmv
from repro.core import Engine, EngineOptions, plan
from repro.core import engine as engine_module
from repro.core.options import PARTITION_ORDERS
from repro.core.backend import ThreadBackend
from repro.core.ops import EdgeOperator, scatter_add_gather
from repro.frontier.distinct import count_distinct_between
from repro.frontier.frontier import Frontier
from repro.graph import generators as gen
from repro.graph.weights import WeightFn
from repro.layout import EDGE_ORDERS, GraphStore
from repro.layout.grid import GridStore
from repro.partition.vertex_partition import VertexPartition
from repro.resilience import ResiliencePolicy
from tests.lattice import LATTICE_GRAPHS, Config, check, graph, stats_rows

KERNELS = ("run_coo_partition", "run_csc_partition", "run_pcsr_partition")


def _always_masked(frontier: Frontier) -> dict:
    """The plan helper as it was: every phase filters by the bitmap."""
    return {"bitmap": frontier.as_bitmap()}


def test_skipping_the_filter_is_unobservable():
    """Full frontiers with and without the bitmap (one point; the lattice's
    twins draw the bitmap against every other axis)."""
    masked = Config("CC", "rmat:3", 16, forced_layout="coo", partition_order="shuffle",
                    bitmap=True)
    check(masked, twin=dataclasses.replace(masked, bitmap=False, backend="threads:workers=2"))


def test_skipping_the_filter_is_unobservable_through_a_supervised_grid():
    """Every algorithm: tier-1's derandomized grid samples do not reach
    all eight through a supervised grid, so this pin does."""
    for code, stripes, name in zip(registry.names(), itertools.cycle(range(1, 7)),
                                   itertools.cycle(LATTICE_GRAPHS[::-1])):
        masked = Config(code, name, stripes=stripes, supervised=True, bitmap=True)
        check(masked, twin=dataclasses.replace(masked, bitmap=False))


# ----------------------------------------------------------------------
# the rule: decided from the frontier alone
# ----------------------------------------------------------------------
class _Spy:
    """Record the ``bitmap`` every partitioned kernel was handed and every
    batch ``op_class.process_edges`` saw."""

    def __init__(self, monkeypatch, op_class=PageRankOp):
        self.bitmaps: list[np.ndarray | None] = []
        self.batches: list[tuple[np.ndarray, np.ndarray]] = []
        for name in KERNELS:
            monkeypatch.setattr(engine_module, name, self._kernel(getattr(engine_module, name)))
        inner = op_class.process_edges

        def process_edges(op, src, dst):
            self.batches.append((src, dst))
            return inner(op, src, dst)

        monkeypatch.setattr(op_class, "process_edges", process_edges)

    def _kernel(self, fn):
        signature = inspect.signature(fn)

        def run(*args):
            self.bitmaps.append(signature.bind(*args).arguments["bitmap"])
            return fn(*args)

        return run

    def batch_lists(self) -> list[tuple[list[int], list[int]]]:
        return [(src.tolist(), dst.tolist()) for src, dst in self.batches]


def _one_cc_phase(store, layout, frontier):
    """One edge-map of ``frontier`` under the spy: ``(spy, labels, next)``."""
    with pytest.MonkeyPatch.context() as patch:
        spy = _Spy(patch, CCOp)
        options = EngineOptions(num_threads=2, backend="serial", forced_layout=layout)
        with Engine(store, options) as engine:
            labels = np.arange(store.num_vertices, dtype=VID_DTYPE)
            nxt = engine.edge_map(frontier, CCOp(labels))
    return spy, labels, nxt


@pytest.mark.parametrize("layout", ["coo", "csc", "pcsr"])
def test_only_a_frontier_of_every_vertex_goes_without_a_bitmap(layout):
    store = GraphStore.build(gen.road_grid(12, seed=2), num_partitions=6)
    n = store.num_vertices
    want = _one_cc_phase(store, layout, Frontier.full(n))
    assert want[0].bitmaps and all(b is None for b in want[0].bitmaps)
    for same in (Frontier.from_bitmap(np.ones(n, bool)), Frontier(n, sparse=np.arange(n))):
        assert engine_module._frontier_filter(same) == {}
        spy, labels, nxt = _one_cc_phase(store, layout, same)
        assert all(b is None for b in spy.bitmaps)
        assert spy.batch_lists() == want[0].batch_lists()
        assert np.array_equal(labels, want[1]) and nxt == want[2]

    all_but_one = np.ones(n, bool)
    all_but_one[n // 2] = False
    spy, _, _ = _one_cc_phase(store, layout, Frontier.from_bitmap(all_but_one))
    assert spy.bitmaps and all(b is not None and b.size == n for b in spy.bitmaps)


def test_a_later_write_to_the_source_mask_cannot_stale_the_rule():
    """``size`` is cached at construction; the arrays it was counted from
    are frozen, so ``size == n`` keeps meaning "every vertex"."""
    store = GraphStore.build(gen.rmat(7, 8.0, seed=1), num_partitions=6)
    n = store.num_vertices
    mask = np.ones(n, bool)
    frontier = Frontier(n, bitmap=mask)
    mask[::2] = False  # the caller's array, after the fact
    assert frontier.size == n and frontier.as_bitmap().all()
    assert frontier.as_sparse().size == n
    for array in (frontier.as_bitmap(), frontier.as_sparse()):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    want = _one_cc_phase(store, "coo", Frontier.full(n))
    got = _one_cc_phase(store, "coo", frontier)
    assert got[0].batch_lists() == want[0].batch_lists()
    assert np.array_equal(got[1], want[1]) and got[2] == want[2]


# ----------------------------------------------------------------------
# the same loop: same batches, same order, nothing copied
# ----------------------------------------------------------------------
def _pagerank_under_spy(store, masked: bool):
    with pytest.MonkeyPatch.context() as patch:
        if masked:
            patch.setattr(engine_module, "_frontier_filter", _always_masked)
        spy = _Spy(patch)
        with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
            result = pagerank(engine)
    return spy, result


def test_pagerank_sees_no_bitmap_and_the_very_same_batches():
    edges = gen.rmat(7, 8.0, seed=2)
    n = edges.num_vertices
    # repeated boundaries: partitions 2 and 5 are zero-width
    cuts = np.array([0, 20, 45, 45, 70, 90, 90, 110, n])
    store = GraphStore.build(edges, partition=VertexPartition(n, cuts))
    masked, want = _pagerank_under_spy(store, masked=True)
    spy, got = _pagerank_under_spy(store, masked=False)

    assert len(got.stats.edge_maps) == 10
    assert {m.layout for m in got.stats.edge_maps} == {"coo"}
    assert spy.bitmaps and all(b is None for b in spy.bitmaps)
    assert all(b is not None and b.all() for b in masked.bitmaps)
    # PageRankOp is declared edge-local: the graph is one run, and its
    # eight partitions, the two empty ones included, reach it as one batch
    assert len(plan.coo_tasks(store.coo, EngineOptions(), plan.TASK_EDGES)) == 1
    assert [dst.size for _, dst in spy.batches] == [edges.num_edges] * 10
    assert spy.batch_lists() == masked.batch_lists()
    # ... and they are the layout's own arrays, not copies of them
    coo = store.coo
    for src, dst in spy.batches:
        assert src.base is not None and dst.base is not None
        assert np.shares_memory(src, coo.src) or src.size == 0
        assert np.shares_memory(dst, coo.dst) or dst.size == 0
    assert not any(np.shares_memory(src, coo.src) for src, _ in masked.batches)
    assert np.array_equal(got.ranks, want.ranks)


def test_a_grid_record_does_not_pin_the_streamed_block(tmp_path):
    """``PageRankOp`` returns the ``dst`` it was handed; a view of a grid
    block would keep the block's payload alive past the budget's eviction
    of it."""
    edges = gen.rmat(7, 8.0, seed=2)
    n = edges.num_vertices
    store = GraphStore.build(edges, num_partitions=4)
    records = []
    with pytest.MonkeyPatch.context() as patch:
        fold = Engine._fold

        def spy_fold(engine, plan, frontier, density, recs):
            records.extend(recs)
            return fold(engine, plan, frontier, density, recs)

        patch.setattr(Engine, "_fold", spy_fold)
        grid = GridStore.build(edges, tmp_path, num_stripes=3, budget=16 << 10)
        with Engine(store, EngineOptions(num_threads=2, backend="serial"), grid=grid) as engine:
            op = PageRankOp(np.full(n, 1.0 / n), np.zeros(n))
            engine.edge_map(Frontier.full(n), op)
            assert records and sum(rec.activated.size for rec in records) == edges.num_edges
            for rec in records:
                assert rec.activated.base is None


# ----------------------------------------------------------------------
# a phase that activates every destination folds nothing
# ----------------------------------------------------------------------
class _HandBack(EdgeOperator):
    """PageRank's update, handing ``dst`` back in one of the ways an
    operator may: the object itself, a copy, a subset, or — ``mixed`` —
    the object from even-sized batches and a copy from odd ones.
    It declares its writes, so it runs in long tasks; not edge-local (a
    ``mixed`` answer depends on the batch), so never on the pool."""

    writes = ("accum",)

    def __init__(self, contrib, accum, how="same"):
        self.contrib = contrib
        self.accum = accum
        self.how = how

    def process_edges(self, src, dst):
        scatter_add_gather(self.accum, dst, self.contrib, src)
        if self.how == "subset":
            return dst[dst % 3 > 0]
        if self.how == "copy":
            return dst.copy()
        if self.how == "mixed":
            if dst.size % 2:
                return dst.copy()
        return dst


class _PassingCond(PageRankOp):
    def cond(self, dst_ids):
        return np.ones(dst_ids.size, bool)


def _edge_map(store, op_class, frontier=None, **engine_kwargs):
    """One edge-map (of the full frontier, by default) on a fresh engine:
    ``(engine, state, next frontier)``."""
    n = store.num_vertices
    options = EngineOptions(num_threads=2, backend="serial", forced_layout="coo")
    engine = Engine(store, options, **engine_kwargs)
    op = op_class(np.linspace(1, 2, n), np.zeros(n))
    nxt = engine.edge_map(Frontier.full(n) if frontier is None else frontier, op)
    return engine, op.accum, nxt


def test_the_hand_back_operator_is_certified():
    """It declares its writes, so the engine skips its guards and builds
    long tasks; not edge-local, so a run reaches it one batch per partition."""
    assert _HandBack.writes == ("accum",) and not _HandBack.edge_local
    store = GraphStore.build(gen.road_grid(12, seed=2), num_partitions=12)
    n = store.num_vertices
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        op = _HandBack(np.full(n, 1.0 / n), np.zeros(n))
        target, merged = engine._task_edges(op, engine._op_trusted(op))
        assert target > 0 and not merged
        engine.edge_map(Frontier.full(n), op)
        assert engine.guards_skipped > 0 and engine.guard_invocations == 0


@settings(max_examples=40, deadline=None)
@given(
    how=st.sampled_from(["same", "copy", "subset", "mixed"]),
    name=st.sampled_from(LATTICE_GRAPHS),
    p=st.integers(1, 24),
    order=st.sampled_from(PARTITION_ORDERS),
    spilled=st.booleans(),
)
def test_what_the_operator_hands_back_decides_the_fold(
    tmp_path_factory, how, name, p, order, spilled
):
    """Only the very ``dst`` object from every batch skips the fold, and
    whether it was skipped shows in nothing but the frontier's identity
    (``reverse`` makes every partition its own record: a ``mixed`` phase
    then folds flagged and unflagged records together).  ``spilled``
    streams a grid of ``p % 4 + 3`` stripes instead, each block its own
    record, under a budget that evicts."""
    edges = graph(name)
    store = GraphStore.build(edges, num_partitions=p)
    n, coo = store.num_vertices, store.coo
    contrib = np.linspace(1, 2, n)
    op = _HandBack(contrib, np.zeros(n), how)
    grid = None
    if spilled:
        directory = tmp_path_factory.mktemp("grid")
        grid = GridStore.build(edges, directory, num_stripes=p % 4 + 3, budget=1 << 10)
    options = EngineOptions(num_threads=2, backend="serial", partition_order=order)
    with Engine(store, options, grid=grid) as engine:
        nxt = engine.edge_map(Frontier.full(n), op)
        (phase,) = engine.stats.edge_maps
        if grid is None:
            sizes = np.diff(coo.partition_index)
        else:
            stripes = range(grid.num_stripes)
            sizes = np.array([grid.block_edges(i, j) for i in stripes for j in stripes])
            assert phase.layout == "grid" and grid.budget.evictions > 0
        all_even = not (sizes % 2).any()
        assert ("in-edge-frontier" in engine._per_store) == (
            how == "same" or (how == "mixed" and all_even)
        )
        assert nxt is engine._per_store.get("in-edge-frontier", nxt)
    want = np.unique(coo.dst[coo.dst % 3 > 0] if how == "subset" else coo.dst)
    assert np.array_equal(nxt.as_sparse(), want) and phase.updated_vertices == want.size
    accum = np.zeros(n)
    np.add.at(accum, coo.dst, contrib[coo.src])
    assert np.array_equal(op.accum, accum)


def test_a_bitmap_or_a_cond_folds_but_a_full_grid_does_not(tmp_path):
    """A partial frontier and a non-``None`` ``cond`` fold as before.  A
    full-frontier phase over a grid takes the very frontier the in-RAM
    phase takes: both are the vertices with an in-edge, a constant of the
    store, and every block's ``touched`` is the grid's cached count."""
    edges = gen.rmat(7, 8.0, seed=2)
    store = GraphStore.build(edges, num_partitions=6)
    n = store.num_vertices
    engine, want, full = _edge_map(store, PageRankOp)
    assert full is engine._per_store["in-edge-frontier"]
    assert full == Frontier(n, sparse=store.coo.dst)
    engine.close()

    sink = int(np.flatnonzero(store.out_degrees == 0)[0])  # every edge stays live without it
    partial = Frontier(n, sparse=np.delete(np.arange(n), sink))
    for op_class, kwargs in ((PageRankOp, {"frontier": partial}), (_PassingCond, {})):
        engine, got, nxt = _edge_map(store, op_class, **kwargs)
        assert "in-edge-frontier" not in engine._per_store
        assert nxt == full and nxt is not full
        assert np.array_equal(got, want)
        engine.close()

    grid = GridStore.build(edges, tmp_path, num_stripes=3, budget=16 << 10)
    engine, got, nxt = _edge_map(store, PageRankOp, grid=grid)
    assert nxt is engine._per_store["in-edge-frontier"]
    assert nxt == full and np.array_equal(got, want)
    counts = engine._per_store["grid-distinct"]
    (phase,) = engine.stats.edge_maps
    engine.close()
    assert counts.tolist() == _block_counts(edges, grid)
    assert phase.partition_touched_vertices.tolist() == np.maximum(counts, 0).sum(0).tolist()


def _block_counts(edges, grid) -> list[list[int]]:
    """Each grid block's distinct destinations by ``np.unique``; -1 for an
    empty block, which is never read and so never counted."""
    ranges = [grid.stripes.vertex_range(k) for k in range(grid.num_stripes)]
    counts = []
    for a, b in ranges:
        rows = (a <= edges.src) & (edges.src < b)
        counts.append([])
        for c, d in ranges:
            inside = rows & (c <= edges.dst) & (edges.dst < d)
            counts[-1].append(np.unique(edges.dst[inside]).size if inside.any() else -1)
    return counts


def test_rebuilding_the_store_drops_the_cached_frontier():
    store = GraphStore.build(gen.rmat(8, 8.0, seed=5), num_partitions=12)
    n = store.num_vertices
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        op = PageRankOp(np.linspace(1, 2, n), np.zeros(n))
        before = engine.edge_map(Frontier.full(n), op)
        engine._rebuild_store(6)
        assert "in-edge-frontier" not in engine._per_store
        after = engine.edge_map(Frontier.full(n), op)
        assert after is engine._per_store["in-edge-frontier"] and after is not before
        assert after == Frontier(n, sparse=engine.store.coo.dst)


def test_rebuilding_the_store_drops_the_cached_weights():
    store = GraphStore.build(gen.rmat(8, 8.0, seed=5), num_partitions=12)
    wf = WeightFn(seed=2)
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        want = spmv(engine, weight_fn=wf).y
        before = engine._per_store["weights", "coo"][1]
        engine._rebuild_store(6)
        assert ("weights", "coo") not in engine._per_store
        got = spmv(engine, weight_fn=wf).y
        after = engine._per_store["weights", "coo"][1]
        coo = engine.store.coo
    assert after is not before and after.tobytes() == wf(coo.src, coo.dst).tobytes()
    assert got.tobytes() == want.tobytes()


def test_attaching_a_grid_drops_the_cached_weights(tmp_path):
    edges = gen.rmat(8, 8.0, seed=5)
    store = GraphStore.build(edges, num_partitions=12)
    wf = WeightFn(seed=2)
    source = int(np.argmax(store.out_degrees))

    def weight_keys(engine):
        return {key for key in engine._per_store if key[0] == "weights"}

    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        want = spmv(engine, weight_fn=wf).y, bellman_ford(engine, source, weight_fn=wf).dist
        assert weight_keys(engine) == {("weights", "coo"), ("weights", "csr")}
        engine.attach_grid(GridStore.build(edges, tmp_path, num_stripes=3))
        assert weight_keys(engine) == set()
        got = spmv(engine, weight_fn=wf).y, bellman_ford(engine, source, weight_fn=wf).dist
        assert weight_keys(engine) == set()  # grid blocks hash per run
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_weighted_results_are_bit_identical_on_every_path(tmp_path):
    """COO and CSR phases, in-process or in blocks on the thread pool, read
    the per-store cache; a grid block and the partitioned CSR hash their
    runs — the same bits."""
    edges = gen.rmat(8, 8.0, seed=6)
    store = GraphStore.build(edges, num_partitions=16)
    wf = WeightFn(low=0.5, high=4.0, seed=2)
    source = int(np.argmax(store.out_degrees))

    def run(backend="serial", layout=None, **engine_kwargs):
        options = EngineOptions(num_threads=2, backend=backend, forced_layout=layout)
        with Engine(store, options, **engine_kwargs) as engine:
            y = spmv(engine, weight_fn=wf).y
            paths = bellman_ford(engine, source, weight_fn=wf)
            layouts = {m.layout for m in paths.stats.edge_maps}
            cached = {key[1] for key in engine._per_store if key[0] == "weights"}
            assert engine.backend_stats.fallbacks == 0
        return (y.tobytes(), paths.dist.tobytes()), layouts, cached

    want, layouts, cached = run()
    assert layouts == {"csr", "csc", "coo"} and cached == {"coo", "csr"}
    got, _, cached = run("threads:workers=2")
    assert got == want and cached == {"coo", "csr"}  # the pool reads the cache too
    got, layouts, cached = run(layout="pcsr")
    assert got == want and layouts == {"pcsr"} and cached == set()
    grid = GridStore.build(edges, tmp_path, num_stripes=3, budget=16 << 10)
    got, layouts, cached = run(resilience=ResiliencePolicy(), grid=grid)
    assert got == want and layouts == {"grid"} and cached == set()


def test_flagged_records_from_the_pool_keep_their_layout_views(monkeypatch):
    store = GraphStore.build(gen.rmat(8, 8.0, seed=4), num_partitions=16)
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        want = pagerank(engine)
    received = []
    run_partitions = ThreadBackend.run_partitions

    def spy(backend, *args):
        records = run_partitions(backend, *args)
        received.extend(
            (rec.all_dst, np.shares_memory(rec.activated, store.coo.dst)) for rec in records
        )
        return records

    monkeypatch.setattr(ThreadBackend, "run_partitions", spy)
    with Engine(store, EngineOptions(num_threads=2, backend="threads:workers=2")) as engine:
        got = pagerank(engine)
        assert set(received) == {(True, True)}
        assert "in-edge-frontier" in engine._per_store  # the fold looked the frontier up
        assert engine.backend_stats.fallbacks == 0
        assert engine.backend_stats.batches_dispatched == 10
    assert np.array_equal(got.ranks, want.ranks)
    assert stats_rows(got) == stats_rows(want)


# ----------------------------------------------------------------------
# touched is a constant of the layout, held once per store
# ----------------------------------------------------------------------
def _distinct_per_partition(coo) -> list[int]:
    bounds = coo.partition_index
    return [
        int(np.unique(coo.dst[bounds[k] : bounds[k + 1]]).size)
        for k in range(coo.num_partitions)
    ]


@pytest.mark.parametrize("edge_order", EDGE_ORDERS)
def test_cached_distinct_counts_are_the_live_edges_counts(edge_order):
    store = GraphStore.build(gen.rmat(8, 8.0, seed=5), num_partitions=12, edge_order=edge_order)
    n = store.num_vertices
    options = EngineOptions(num_threads=2, backend="serial", forced_layout="coo")
    with Engine(store, options) as engine:
        assert "coo-distinct" not in engine._per_store
        partial = Frontier(n, sparse=np.arange(n - 1))
        engine.edge_map(partial, CCOp(np.arange(n, dtype=VID_DTYPE)))
        assert "coo-distinct" not in engine._per_store  # partial frontiers count as before
        engine.edge_map(Frontier.full(n), CCOp(np.arange(n, dtype=VID_DTYPE)))
        counts = engine._per_store["coo-distinct"]
        stats = engine.stats.edge_maps[-1]
    coo = store.coo
    assert counts.tolist() == _distinct_per_partition(coo)
    assert np.array_equal(counts, count_distinct_between(coo.dst, coo.partition.boundaries))
    assert stats.partition_touched_vertices.tolist() == counts.tolist()


def test_rebuilding_the_store_recounts():
    store = GraphStore.build(gen.rmat(8, 8.0, seed=5), num_partitions=12)
    n = store.num_vertices
    options = EngineOptions(num_threads=2, backend="serial", forced_layout="coo")
    with Engine(store, options) as engine:
        engine.edge_map(Frontier.full(n), CCOp(np.arange(n, dtype=VID_DTYPE)))
        before = engine._per_store["coo-distinct"]
        engine._rebuild_store(6)
        assert "coo-distinct" not in engine._per_store
        engine.edge_map(Frontier.full(n), CCOp(np.arange(n, dtype=VID_DTYPE)))
        after = engine._per_store["coo-distinct"]
        stats = engine.stats.edge_maps[-1]
        assert before.size == 12 and after.size == 6
        assert after.tolist() == _distinct_per_partition(engine.store.coo)
        assert stats.partition_touched_vertices.tolist() == after.tolist()


def test_a_second_grid_or_a_rebuilt_store_recounts(tmp_path):
    """The block counts are a constant of one grid: attaching another (of
    another stripe count), rebuilding the store and closing the engine
    drop them, and the next full-frontier phase counts again."""
    edges = gen.rmat(8, 8.0, seed=5)
    store = GraphStore.build(edges, num_partitions=12)
    n = store.num_vertices
    first = GridStore.build(edges, tmp_path / "3", num_stripes=3)
    second = GridStore.build(edges, tmp_path / "5", num_stripes=5)

    def phase(engine, grid):
        op = PageRankOp(np.linspace(1, 2, n), np.zeros(n))
        engine.edge_map(Frontier.full(n), op)
        counts = engine._per_store["grid-distinct"]
        assert counts.tolist() == _block_counts(edges, grid)
        touched = engine.stats.edge_maps[-1].partition_touched_vertices
        assert touched.tolist() == np.maximum(counts, 0).sum(0).tolist()
        return counts

    options = EngineOptions(num_threads=2, backend="serial")
    with Engine(store, options, grid=first) as engine:
        assert phase(engine, first).shape == (3, 3)
        engine.attach_grid(second)
        assert "grid-distinct" not in engine._per_store
        before = phase(engine, second)
        assert before.shape == (5, 5)
        engine._rebuild_store(6)
        assert "grid-distinct" not in engine._per_store
        after = phase(engine, second)
        assert after is not before and np.array_equal(after, before)
        engine.close()
        assert "grid-distinct" not in engine._per_store


# ----------------------------------------------------------------------
# a full-frontier batch on the pool carries no bitmap
# ----------------------------------------------------------------------
def test_a_full_frontier_dispatch_publishes_no_bitmap():
    store = GraphStore.build(gen.rmat(8, 8.0, seed=4), num_partitions=16)
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        want = pagerank(engine)

    def pooled(masked: bool) -> set:
        """Whether the pool's COO tasks were handed a bitmap."""
        bitmaps, real = [], engine_module.run_coo_partition

        def spy(*args):
            bitmaps.append(args[6] is not None)
            return real(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "run_coo_partition", spy)
            if masked:
                patch.setattr(engine_module, "_frontier_filter", _always_masked)
            options = EngineOptions(num_threads=2, backend="threads:workers=2")
            with Engine(store, options) as engine:
                got = pagerank(engine)
                stats = dataclasses.replace(engine.backend_stats)
        assert np.array_equal(got.ranks, want.ranks)
        assert stats_rows(got) == stats_rows(want)
        assert stats.fallbacks == 0 and stats.batches_dispatched == 10
        return set(bitmaps)

    assert pooled(masked=True) == {True} and pooled(masked=False) == {False}
