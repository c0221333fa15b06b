"""A task is a run of adjacent partitions — and nobody can tell.

The engine's loop executes runs of about ``TASK_EDGES`` edges
(:mod:`repro.core.plan`); the kernels hoist everything around the
operator call over the run and hand the operator one batch per
partition, lowest first — or, for an operator certified edge-local, one
batch for the whole run.  So the edge target must be unobservable:
result arrays, every ``EdgeMapStats`` field and both guard counters are
the same with runs of one (``TASK_EDGES = 0``: never merged), the
shipped value and a tiny one.  Where hoisting is not proved — an
untrusted operator, a ``cond`` that reads written state by another
index, a supervised engine — tasks stay runs of one; where merging is
not proved, a run's operator still gets one batch per partition.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import VID_DTYPE
from repro.algorithms import registry
from repro.algorithms.cc import CCOp, connected_components
from repro.algorithms.pagerank import PageRankOp
from repro.analysis import certificate
from repro.analysis.certificate import operator_report
from repro.analysis.sanitizer import ShadowWriteRecorder
from repro.core import Engine, EngineOptions, plan
from repro.core import engine as engine_module
from repro.core.ops import EdgeOperator
from repro.frontier.frontier import Frontier
from repro.graph import generators as gen
from repro.layout.store import GraphStore
from repro.partition.vertex_partition import VertexPartition
from repro.resilience import ResiliencePolicy
from tests.analysis.corpus import bad_effects

SHIPPED = plan.TASK_EDGES
#: a few partitions per run on the graphs below.
TINY = 200

GRAPHS = {
    "rmat": lambda seed: gen.rmat(7, 8.0, seed=seed),
    "road": lambda seed: gen.road_grid(9, seed=seed),
}


def _stats_rows(result) -> list[tuple]:
    """Every field of every ``EdgeMapStats`` the run recorded."""
    if hasattr(result, "forward_stats"):  # BC: the backward pass has its own engine
        maps = result.forward_stats.edge_maps + result.backward_stats.edge_maps
    else:
        maps = result.stats.edge_maps
    return [
        tuple(
            value.tolist() if isinstance(value, np.ndarray) else value
            for value in dataclasses.astuple(m)
        )
        for m in maps
    ]


def _observe(store, code: str, options: EngineOptions, target: int):
    """Everything a caller can see of one run at edge target ``target``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plan, "TASK_EDGES", target)
        with Engine(store, options) as engine:
            result = registry.get(code).run(engine)
            guards = (engine.guards_skipped, engine.guard_invocations)
    arrays = {name: a.tobytes() for name, a in registry.result_arrays(result).items()}
    return arrays, _stats_rows(result), guards


@settings(max_examples=40, deadline=None)
@given(
    code=st.sampled_from(registry.names()),
    graph=st.sampled_from(sorted(GRAPHS)),
    seed=st.integers(0, 3),
    p=st.integers(1, 24),
    order=st.sampled_from(["forward", "reverse", "shuffle"]),
    layout=st.sampled_from([None, "csc", "coo"]),
)
def test_the_edge_target_is_unobservable(code, graph, seed, p, order, layout):
    """Runs of one against longer runs: hoisting, and for PR, PRDelta,
    SPMV and BP the merged batch too, show in nothing a caller sees."""
    store = GraphStore.build(GRAPHS[graph](seed), num_partitions=p)
    options = EngineOptions(
        num_threads=2, backend="serial", forced_layout=layout, partition_order=order
    )
    ones = _observe(store, code, options, 0)
    for target in (SHIPPED, TINY):
        arrays, rows, guards = _observe(store, code, options, target)
        assert arrays == ones[0]
        assert rows == ones[1]
        assert guards == ones[2]
    ambient = EngineOptions().backend
    if ambient != "serial":
        # CI's backend matrix: on a worker pool the answers still may not
        # move; the trajectory there follows the schedule (DESIGN.md).
        pooled = dataclasses.replace(options, backend=ambient)
        for target in (SHIPPED, TINY):
            assert _observe(store, code, pooled, target)[0] == ones[0]


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
            forced = dataclasses.replace(operator_report(cls), edge_local=edge_local)
            patch.setitem(certificate._CLASS_CACHE, cls, forced)
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
    """PageRankOp is certified edge-local: a run reaches it as one batch,
    which is its per-partition batches end to end.  A recorder wrapped
    around it is not certified, so it records one write set per partition."""
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

    recorder = ShadowWriteRecorder(pagerank_op())
    _spied_phase(store, layout, TINY, recorder)
    assert len(recorder.write_sets) == len(parts.batches)


@pytest.mark.parametrize(
    "op_class",
    [cls for cls in bad_effects.SPLIT_OBSERVABLE if cls is not bad_effects.FirstWriterOp],
    ids=lambda cls: cls.__name__,
)
def test_merging_what_the_rule_refuses_would_show(op_class):
    """Each clause of the rule earns its place: forced onto a corpus
    operator that breaks it, a merged batch changes the result.  (Refusing
    ``FirstWriterOp`` is the conservative call: its first writer per
    destination is the same either way.)"""
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
# where hoisting is not proved, tasks stay runs of one
# ----------------------------------------------------------------------
class UncertifiedCCOp(CCOp):
    """Mutable non-array state the default snapshot cannot see: the
    certificate is withheld, so the engine guards (and never hoists)."""

    def __init__(self, labels: np.ndarray) -> None:
        super().__init__(labels)
        self.history = []


class NeighbourCondOp(EdgeOperator):
    """Partition-pure, but ``cond`` looks at the *next* vertex's label — a
    written array read by an index other than the ids it was handed."""

    combine = "min"

    def __init__(self, labels: np.ndarray) -> None:
        self.labels = labels

    def cond(self, dst_ids: np.ndarray) -> np.ndarray:
        return self.labels[(dst_ids + 1) % self.labels.size] >= 0

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        before = self.labels[dst]
        np.minimum.at(self.labels, dst, self.labels[src])
        return dst[self.labels[dst] < before]


def test_the_shipped_conds_are_proved_local_and_the_neighbour_read_is_not():
    for code in registry.names():
        for report in registry.get(code).certificate().operators:
            assert report.cond_proved and report.cond_local, report.name
    report = operator_report(NeighbourCondOp)
    assert report.safety.value == "partition-pure" and report.cond_proved
    assert not report.cond_local
    assert report.to_dict()["cond_local"] is False
    assert operator_report(UncertifiedCCOp).safety.value == "unknown"


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
        options = EngineOptions(
            num_threads=2, backend="serial", forced_layout=layout, trust_certificates=False
        )
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
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        want = connected_components(engine)
    assert {len(m.partition_examined) for m in want.stats.edge_maps if m.layout != "csr"} == {16}
    with Engine(store, EngineOptions(num_threads=2, backend="process:workers=2")) as engine:
        got = connected_components(engine)
        stats = engine.backend_stats
        assert stats.fallbacks == 0 and stats.batches_dispatched > 0
        # partitions, not tasks: every dispatched phase covers all 16
        assert stats.partitions_dispatched == 16 * stats.batches_dispatched
    assert np.array_equal(got.labels, want.labels)
