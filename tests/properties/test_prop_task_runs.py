"""A task is a run of adjacent partitions — and nobody can tell.

The engine's loop executes runs of about ``TASK_EDGES`` edges
(:mod:`repro.core.plan`); the kernels hoist everything around the
operator call over the run and hand the operator one batch per
partition, lowest first — or, for an operator declared edge-local, one
batch for the whole run.  So the edge target must be unobservable:
result arrays, every ``EdgeMapStats`` field and both guard counters are
the same with runs of one (``TASK_EDGES = 0``: never merged), the
shipped value and a tiny one.  Where hoisting is not declared safe — an
operator that declares no writes, a supervised engine — tasks stay runs
of one; where merging is not declared, a run's operator still gets one
batch per partition.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from repro._types import NO_VERTEX, VID_DTYPE
from repro.algorithms.bc import SigmaOp
from repro.algorithms.bfs import BFSOp
from repro.algorithms.cc import CCOp, connected_components
from repro.algorithms.pagerank import PageRankOp, pagerank
from repro.core import Engine, EngineOptions, plan
from repro.core import engine as engine_module
from repro.core.ops import EdgeOperator
from repro.frontier.frontier import Frontier
from repro.graph import generators as gen
from repro.layout.store import GraphStore
from repro.partition.vertex_partition import VertexPartition
from repro.resilience import ResiliencePolicy
from tests.algorithms.test_registry import _shipped_operators
from tests.lattice import Config, check

SHIPPED = plan.TASK_EDGES
#: a few partitions per run on the graphs below.
TINY = 200


def test_the_edge_target_is_unobservable():
    """Runs of one against longer runs: hoisting, and for PR, PRDelta,
    SPMV and BP the merged batch too, show in nothing a caller sees (one
    point; the lattice's twins draw the grain against every other axis)."""
    ones = Config("SPMV", "road:1", 12, forced_layout="csc", partition_order="shuffle", grain=0)
    check(ones, twin=dataclasses.replace(ones, grain=TINY, backend="threads:workers=2"))


# ----------------------------------------------------------------------
# inside a run: one operator batch per partition, in visit order
# ----------------------------------------------------------------------
class _Spy:
    """Record the kernels' vertex cuts and the operator's batches."""

    def __init__(self, monkeypatch, op_class=CCOp):
        self.cuts: list[list[int]] = []
        self.batches: list[tuple[list[int], list[int]]] = []
        for name in ("run_coo_partition", "run_csc_partition"):
            monkeypatch.setattr(engine_module, name, self._kernel(getattr(engine_module, name)))
        inner = op_class.process_edges

        def process_edges(op, src, dst):
            self.batches.append((src.tolist(), dst.tolist()))
            return inner(op, src, dst)

        monkeypatch.setattr(op_class, "process_edges", process_edges)

    def _kernel(self, fn):
        signature = inspect.signature(fn)

        def run(*args):
            self.cuts.append(signature.bind(*args).arguments["cuts"].tolist())
            return fn(*args)

        return run

    def run_lengths(self) -> list[int]:
        return [len(cuts) - 1 for cuts in self.cuts]


def _spied_phase(store, layout, target, op, edge_local=None, **engine_kwargs):
    """One full-frontier edge-map of ``op`` under the spy, its class's
    ``edge_local`` verdict forced where given: ``(spy, next frontier)``."""
    cls = type(op)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plan, "TASK_EDGES", target)
        if edge_local is not None:
            patch.setattr(cls, "edge_local", edge_local)
        spy = _Spy(patch, cls)
        options = EngineOptions(num_threads=2, backend="serial", forced_layout=layout)
        with Engine(store, options, **engine_kwargs) as engine:
            nxt = engine.edge_map(Frontier.full(store.num_vertices), op)
    return spy, nxt


def _one_cc_phase(store, layout, target, op_class=CCOp, **engine_kwargs):
    """One full-frontier edge-map under the spy: ``(spy, labels, next frontier)``."""
    labels = np.arange(store.num_vertices, dtype=VID_DTYPE)
    spy, nxt = _spied_phase(store, layout, target, op_class(labels), **engine_kwargs)
    return spy, labels, nxt


#: partitions 3 and 7 of the store below are zero-width.
CUTS = [0, 10, 25, 40, 40, 60, 75, 90, 90, 110, 130, 144]


def _store_with_empty_partitions():
    edges = gen.road_grid(12, seed=2)
    return GraphStore.build(edges, partition=VertexPartition(edges.num_vertices, np.array(CUTS)))


@pytest.mark.parametrize("layout", ["coo", "csc"])
def test_a_run_hands_the_operator_one_batch_per_partition_in_order(layout):
    """Fails the moment CC's batches are merged, reordered, or an empty
    partition gains or loses its call."""
    store, cuts = _store_with_empty_partitions(), CUTS
    ones, labels_ones, next_ones = _one_cc_phase(store, layout, 0)
    runs, labels_runs, next_runs = _one_cc_phase(store, layout, TINY)

    assert set(ones.run_lengths()) == {1}
    assert max(runs.run_lengths()) > 1 and sum(runs.run_lengths()) == len(cuts) - 1
    # the very same batches, in the very same order
    assert runs.batches == ones.batches
    # COO calls the operator for every partition, CSC skips the zero-width two
    assert len(runs.batches) == (11 if layout == "coo" else 9)
    # each batch stays inside one partition, and partitions ascend
    owners = [
        int(np.searchsorted(cuts, dst[0], side="right")) - 1
        for _, dst in runs.batches
        if dst
    ]
    assert owners == sorted(set(owners))
    for _, dst in runs.batches:
        if dst:
            k = int(np.searchsorted(cuts, dst[0], side="right")) - 1
            assert cuts[k] <= min(dst) and max(dst) < cuts[k + 1]
    assert np.array_equal(labels_runs, labels_ones)
    assert np.array_equal(next_runs.as_sparse(), next_ones.as_sparse())


@pytest.mark.parametrize("layout", ["coo", "csc"])
def test_an_edge_local_run_is_one_batch_the_partitions_concatenated(layout):
    """PageRankOp is declared edge-local: a run reaches it as one batch,
    which is its per-partition batches end to end."""
    store = _store_with_empty_partitions()
    n = store.num_vertices

    def pagerank_op():
        return PageRankOp(np.linspace(1, 2, n), np.zeros(n))

    merged, split = pagerank_op(), pagerank_op()
    runs, next_runs = _spied_phase(store, layout, TINY, merged)
    parts, next_parts = _spied_phase(store, layout, TINY, split, edge_local=False)
    assert max(runs.run_lengths()) > 1 and runs.cuts == parts.cuts
    # COO calls the operator for every partition, CSC skips the zero-width two
    assert len(runs.batches) == len(runs.cuts) < len(parts.batches)
    assert len(parts.batches) == (11 if layout == "coo" else 9)
    for (_, dst), cuts in zip(runs.batches, runs.cuts):
        assert all(cuts[0] <= v < cuts[-1] for v in dst)
    assert [sum(column, []) for column in zip(*runs.batches)] == [
        sum(column, []) for column in zip(*parts.batches)
    ]
    assert merged.accum.tobytes() == split.accum.tobytes() and next_runs == next_parts


# ----------------------------------------------------------------------
# what ``edge_local`` promises: each operator below declares its writes,
# yet one ``process_edges`` call over a run of partitions is not the same
# as one call per partition — one per clause of the promise
# ----------------------------------------------------------------------
class _SplitOp(EdgeOperator):
    writes = ("acc",)

    def __init__(self, acc, x):
        self.acc = acc
        self.x = x


class SourceReadOp(_SplitOp):
    """Reads at ``src`` what it scatters at ``dst``: CC's Gauss–Seidel shape."""

    def process_edges(self, src, dst):
        np.minimum.at(self.acc, dst, self.acc[src])
        return dst


class PerBatchMeanOp(_SplitOp):
    """A scattered value divided by the batch's length."""

    def process_edges(self, src, dst):
        np.add.at(self.acc, dst, self.x[src] / src.size)
        return dst


class BatchSumOp(_SplitOp):
    """A reduction over the whole batch."""

    def process_edges(self, src, dst):
        np.add.at(self.acc, dst, self.x[src].sum())
        return dst


class PrefixOp(_SplitOp):
    """The first eight edges of the batch, not of each partition."""

    def process_edges(self, src, dst):
        self.acc[dst[:8]] = 1.0
        return dst


class PositionIndexOp(_SplitOp):
    """An index built by ``np.flatnonzero``: positions within the batch."""

    def process_edges(self, src, dst):
        hit = np.flatnonzero(self.x[src] > 0)
        np.add.at(self.acc, dst[hit], hit)
        return dst


#: the operators above, in clause order.
SPLIT_OBSERVABLE = (SourceReadOp, PerBatchMeanOp, BatchSumOp, PrefixOp, PositionIndexOp)


@pytest.mark.parametrize("op_class", SPLIT_OBSERVABLE, ids=lambda cls: cls.__name__)
def test_merging_what_the_rule_refuses_would_show(op_class):
    """Each clause of the promise earns its place: forced onto an operator
    that breaks it, a merged batch changes the result."""
    store = _store_with_empty_partitions()
    n = store.num_vertices
    seen = []
    for edge_local in (False, True):
        op = op_class(np.linspace(1, 2, n), np.linspace(-1, 1, n))
        _, nxt = _spied_phase(store, "coo", TINY, op, edge_local)
        seen.append((op.acc.tobytes(), nxt))
    assert seen[0] != seen[1]


def test_reverse_order_keeps_runs_of_one_and_shuffle_merges_only_neighbours():
    store = GraphStore.build(gen.rmat(7, 8.0, seed=1), num_partitions=12)
    for order, longest in (("forward", 12), ("reverse", 1)):
        options = EngineOptions(partition_order=order)
        tasks = plan.coo_tasks(store.coo, options, 1 << 30)
        assert max(t.num_partitions for t in tasks) == longest
    options = EngineOptions(partition_order="shuffle", partition_order_seed=5)
    tasks = plan.coo_tasks(store.coo, options, 1 << 30)
    visited = [t.partition + k for t in tasks for k in range(t.num_partitions)]
    assert visited == plan.partition_order(12, options)
    assert sorted(visited) == list(range(12))


# ----------------------------------------------------------------------
# where hoisting is not declared safe, tasks stay runs of one
# ----------------------------------------------------------------------
class UncertifiedCCOp(CCOp):
    """CC with its inherited declaration withdrawn: the engine guards (and
    never hoists)."""

    writes = None


class NeighbourCondOp(EdgeOperator):
    """Writes only at ``dst``, but ``cond`` looks at the *next* vertex's
    label — a written array read by an index other than the ids it was
    handed — so it cannot declare ``writes``: it declares nothing."""

    def __init__(self, labels: np.ndarray) -> None:
        self.labels = labels

    def cond(self, dst_ids: np.ndarray) -> np.ndarray:
        return self.labels[(dst_ids + 1) % self.labels.size] >= 0

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        before = self.labels[dst]
        np.minimum.at(self.labels, dst, self.labels[src])
        return dst[self.labels[dst] < before]


def _cond_reads_only_its_ids(op, written, ids, value) -> bool:
    """Whether ``op.cond(ids)`` survives ``value`` stored into every other
    slot of the arrays named ``written``."""
    before = op.cond(ids)
    others = np.setdiff1d(np.arange(getattr(op, written[0]).size), ids)
    for name in written:
        getattr(op, name)[others] = value
    return np.array_equal(before, op.cond(ids))


def test_the_shipped_conds_are_proved_local_and_the_neighbour_read_is_not():
    """Declaring ``writes`` promises that ``cond`` reads written state only
    at the ids it is handed: every shipped operator declares, and the two
    shipped ``cond`` overrides keep the promise under a probe that rewrites
    every other slot.  The neighbour read breaks it, so it declares nothing."""
    for cls in _shipped_operators().values():
        assert cls.writes is not None, cls.__name__
    n, ids = 16, np.arange(0, 16, 2)
    bfs = BFSOp(np.full(n, NO_VERTEX, dtype=VID_DTYPE))
    assert _cond_reads_only_its_ids(bfs, BFSOp.writes, ids, 0)
    sigma = SigmaOp(np.zeros(n), np.zeros(n, dtype=bool))
    assert _cond_reads_only_its_ids(sigma, SigmaOp.writes + ("visited",), ids, True)
    neighbour = NeighbourCondOp(np.arange(n, dtype=VID_DTYPE))
    assert not _cond_reads_only_its_ids(neighbour, ("labels",), ids, -1)
    assert NeighbourCondOp.writes is None and UncertifiedCCOp.writes is None


@pytest.mark.parametrize("layout", ["coo", "csc"])
def test_unproved_hoisting_keeps_runs_of_one(layout):
    store = GraphStore.build(gen.road_grid(12, seed=2), num_partitions=12)
    proved, _, _ = _one_cc_phase(store, layout, SHIPPED)
    assert proved.run_lengths() == [12]  # the control: CCOp alone gets one run

    for op_class in (UncertifiedCCOp, NeighbourCondOp):
        spy, _, _ = _one_cc_phase(store, layout, SHIPPED, op_class)
        assert spy.run_lengths() == [1] * 12, op_class.__name__

    supervised, _, _ = _one_cc_phase(store, layout, SHIPPED, resilience=ResiliencePolicy())
    assert supervised.run_lengths() == [1] * 12

    with pytest.MonkeyPatch.context() as patch:
        spy = _Spy(patch)
        patch.setattr(CCOp, "writes", None)
        options = EngineOptions(num_threads=2, backend="serial", forced_layout=layout)
        with Engine(store, options) as engine:
            connected_components(engine)
            assert engine.guards_skipped == 0 and engine.guard_invocations > 0
    assert set(spy.run_lengths()) == {1}


# ----------------------------------------------------------------------
# a concurrent phase keeps two tasks per worker
# ----------------------------------------------------------------------
def test_a_graph_smaller_than_the_edge_target_still_dispatches():
    edges = gen.rmat(8, 8.0, seed=4)
    assert edges.num_edges < SHIPPED
    store = GraphStore.build(edges, num_partitions=16)
    assert plan.task_edges(edges.num_edges, workers=2) == edges.num_edges // 4
    # PageRank: CC reads what it writes outside dst, so it never dispatches.
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        want = pagerank(engine)
    assert {len(m.partition_examined) for m in want.stats.edge_maps} == {16}
    with Engine(store, EngineOptions(num_threads=2, backend="threads:workers=2")) as engine:
        got = pagerank(engine)
        stats = engine.backend_stats
        assert stats.fallbacks == 0 and stats.batches_dispatched > 0
        # partitions, not tasks: every dispatched phase covers all 16
        assert stats.partitions_dispatched == 16 * stats.batches_dispatched
    assert np.array_equal(got.ranks, want.ranks)
