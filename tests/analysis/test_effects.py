"""What an operator declares it writes, and what the engine does with it.

An operator's class states its effects (:attr:`EdgeOperator.writes`:
the state arrays it writes, each only at ``dst``; and
:attr:`EdgeOperator.edge_local`: one batch per run of partitions is the
same as one per partition).  A declared operator skips the per-batch
guards and may run in long tasks; only a declared, edge-local one may
run on a concurrent backend.  Nothing proves a declaration statically:
the lattice's effects and write-set lines (``tests.lattice.contract_lines``)
hold every registered algorithm's observed writes to it.
"""

import importlib

import numpy as np
import pytest

from repro._types import VID_DTYPE
from repro.algorithms import registry
from repro.algorithms.bellman_ford import BellmanFordOp
from repro.algorithms.bfs import BFSOp
from repro.algorithms.bp import BPOp
from repro.algorithms.cc import CCOp
from repro.algorithms.pagerank import PageRankOp, pagerank
from repro.algorithms.prdelta import PRDeltaOp
from repro.algorithms.spmv import SPMVOp
from repro.core.engine import Engine
from repro.core.ops import EdgeOperator, state_arrays
from repro.core.options import EngineOptions
from repro.errors import OperatorContractError, ValidationError
from repro.frontier.frontier import Frontier
from repro.layout.store import GraphStore
from tests.analysis.corpus import unmodelled_forms
from tests.core.test_process_backend import UncertifiableOp
from tests.lattice import GRAPHS, Config, check
from tests.properties.test_prop_task_runs import (
    TINY,
    BatchSumOp,
    NeighbourCondOp,
    PerBatchMeanOp,
    PositionIndexOp,
    PrefixOp,
    SourceReadOp,
    _SplitOp,
    _spied_phase,
    _store_with_empty_partitions,
)

EDGES = GRAPHS["tiny_rmat"]()
UNDECIDED = 0

#: one operator per form of write that is not pinned to ``dst``.
UNMODELLED = [
    cls
    for name, cls in vars(unmodelled_forms).items()
    if isinstance(cls, type) and issubclass(cls, EdgeOperator)
    and cls.__module__ == unmodelled_forms.__name__ and not name.startswith("_")
]


def _operators(code: str) -> list[type]:
    """The operator classes a registered algorithm drives."""
    classes = []
    for path in registry.get(code).operators:
        module, _, name = path.partition(":")
        classes.append(getattr(importlib.import_module(module), name))
    return classes


# ----------------------------------------------------------------------
# declared operators no registered algorithm drives
# ----------------------------------------------------------------------
class KnockOp(EdgeOperator):
    """Knock the winners' undecided neighbours out of contention (Luby MIS).

    The destination-indexed constant store is idempotent, so duplicate
    destinations and partition order are both harmless: edge-local.
    """

    writes = ("out_mask",)
    edge_local = True

    def __init__(self, state, out_mask):
        self.state = state
        self.out_mask = out_mask

    def cond(self, dst_ids):
        return self.state[dst_ids] == UNDECIDED

    def process_edges(self, src, dst):
        live = (self.state[dst] == UNDECIDED) & (src != dst)
        self.out_mask[dst[live]] = True
        return dst[live]


class BitOrOp(EdgeOperator):
    """OR source bitmasks into destinations (multi-source BFS radii).

    Not edge-local, conservatively: the early return on an empty batch
    reads ``.size``, though it changes nothing.
    """

    writes = ("nxt",)

    def __init__(self, bits, nxt):
        self.bits = bits
        self.nxt = nxt

    def process_edges(self, src, dst):
        if src.size == 0:
            return np.empty(0, dtype=VID_DTYPE)
        np.bitwise_or.at(self.nxt, dst, self.bits[src])
        return dst[(self.nxt[dst] | self.bits[dst]) != self.bits[dst]]


class FirstWriterOp(_SplitOp):
    """BFS's ``np.unique`` first-writer claim.  Per destination the first
    edge is the same in both shapes, but ``np.unique`` is batch-wide, so
    the operator does not claim edge-locality."""

    def process_edges(self, src, dst):
        claimed, first = np.unique(dst, return_index=True)
        self.acc[claimed] = self.x[src[first]]
        return claimed


class MaskedSubsetOp(_SplitOp):
    """The control, edge-local: a boolean-masked subset of the batch and
    a gather through it (``KnockOp``'s mask), scattered with ``maximum.at``."""

    edge_local = True

    def process_edges(self, src, dst):
        live = (self.x[dst] > 0) & (src != dst)
        src, dst = src[live], dst[live]
        np.maximum.at(self.acc, dst, self.x[src])
        return dst


# ----------------------------------------------------------------------
# the split verdict: may a run of partitions reach process_edges as one batch?
# ----------------------------------------------------------------------
#: the Table II operators, and why each is, or is not, edge-local.
TABLE_II_SPLIT = {
    **dict.fromkeys((PageRankOp, PRDeltaOp, SPMVOp, BPOp), []),
    CCOp: ["reads labels, which it writes, at src", ".size"],
    BellmanFordOp: ["reads dist, which it writes, at src", ".size"],
    BFSOp: [".any()", "np.unique", "a subscript by positions"],
}

#: the declared examples above.
CERTIFIED_SPLIT = {
    KnockOp: [],
    BitOrOp: [".size"],  # conservative: an empty batch's early return changes nothing
}

#: the operators that break the rule, one clause each, and the control.
CORPUS_SPLIT = {
    SourceReadOp: ["reads acc, which it writes, at src"],
    PerBatchMeanOp: [".size"],
    BatchSumOp: [".sum()"],
    FirstWriterOp: ["np.unique", "a subscript by positions"],
    PrefixOp: ["a subscript by positions"],
    PositionIndexOp: ["np.flatnonzero", "a subscript by positions"],
    MaskedSubsetOp: [],
}

#: how to build the edge-local test-only operators for one phase over ``n`` vertices.
_FACTORIES = {
    KnockOp: lambda n: KnockOp(np.arange(n) % 3, np.zeros(n, dtype=bool)),
    MaskedSubsetOp: lambda n: MaskedSubsetOp(np.linspace(1, 2, n), np.linspace(-1, 1, n)),
}


def _one_phase(cls, edge_local: bool):
    store = _store_with_empty_partitions()
    op = _FACTORIES[cls](store.num_vertices)
    _, nxt = _spied_phase(store, "coo", TINY, op, edge_local)
    return {k: v.tobytes() for k, v in state_arrays(op).items()}, nxt


@pytest.mark.parametrize(
    "cls", [*TABLE_II_SPLIT, *CERTIFIED_SPLIT, *CORPUS_SPLIT], ids=lambda cls: cls.__name__
)
def test_each_operator_gets_its_split_verdict_for_its_reason(cls):
    """Each declares its writes (so its ``cond`` reads them only at the ids
    it is handed), and is edge-local exactly when nothing in its
    ``process_edges`` can tell one batch per run from one per partition.
    A test-only operator that claims edge-locality keeps its claim: its
    merged phase is the split one, bit for bit."""
    reasons = {**TABLE_II_SPLIT, **CERTIFIED_SPLIT, **CORPUS_SPLIT}[cls]
    assert cls.writes and all(name.isidentifier() for name in cls.writes)
    assert cls.edge_local is (not reasons)
    if cls in _FACTORIES:
        assert _one_phase(cls, True) == _one_phase(cls, False)


def test_an_operator_the_pass_cannot_certify_is_not_edge_local():
    """An operator that declares nothing runs one partition per task, so its
    ``edge_local`` is never consulted; none claims it."""
    for cls in (*UNMODELLED, NeighbourCondOp, UncertifiableOp):
        assert cls.writes is None and not cls.edge_local, cls.__name__
    engine = _pr_engine()
    op = NeighbourCondOp(np.arange(engine.num_vertices, dtype=VID_DTYPE))
    assert engine._task_edges(op, engine._op_trusted(op)) == (0, False)


#: ``cond`` turns positions into a mask as long as the positions, not the ids.
class ShortMaskOp(EdgeOperator):
    def __init__(self, active):
        self.active = active

    def cond(self, dst_ids):
        return np.logical_not(np.flatnonzero(self.active[dst_ids]))

    def process_edges(self, src, dst):
        np.add.at(self.active, dst, 1)
        return dst


def test_a_short_cond_mask_is_flagged_uncertified_and_refused():
    """Declaring nothing, it runs the guarded path, whose mask check refuses it."""
    assert ShortMaskOp.writes is None
    store = GraphStore.build(EDGES, num_partitions=4)
    with Engine(store, EngineOptions(num_threads=4)) as engine:
        op = ShortMaskOp(np.zeros(engine.num_vertices, dtype=np.int64))
        with pytest.raises(OperatorContractError):
            engine.edge_map(Frontier.full(engine.num_vertices), op)


# ----------------------------------------------------------------------
# declarations over the registered algorithm matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", registry.names())
def test_registered_algorithms_certify_partition_pure(code):
    classes = _operators(code)
    assert classes
    for cls in classes:
        assert cls.writes, cls.__name__


@pytest.mark.parametrize("code", ["BFS", "PR", "CC"])
def test_flagship_algorithms_are_partition_pure(code):
    store = GraphStore.build(EDGES, num_partitions=8)
    with Engine(store, EngineOptions(num_threads=4)) as engine:
        registry.get(code).run(engine)
        assert engine.guards_skipped > 0 and engine.guard_invocations == 0


def _pagerank_op(n: int) -> PageRankOp:
    return PageRankOp(np.full(n, 1.0 / n), np.zeros(n))


def test_runtime_purity_check_matches_certificates(engine):
    assert engine._op_trusted(_pagerank_op(engine.num_vertices))
    assert not engine._op_trusted(UncertifiableOp(np.zeros(engine.num_vertices)))


# ----------------------------------------------------------------------
# declared write sets contain the observed write sets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", registry.names())
def test_observed_writes_contained_in_inferred_effects(code):
    """The harness's effects line over a whole CSC run: every edge-map
    changes only arrays its operator declares it writes."""
    check(Config(code, "tiny_rmat", 8, forced_layout="csc"))


def test_observed_write_attrs_subset_of_report(engine):
    op = _pagerank_op(engine.num_vertices)
    before = {k: v.copy() for k, v in state_arrays(op).items()}
    engine.edge_map(Frontier.full(engine.num_vertices), op)
    observed = {k for k, v in before.items() if v.tobytes() != getattr(op, k).tobytes()}
    assert observed
    assert observed <= set(PageRankOp.writes)


# ----------------------------------------------------------------------
# engine: declared operators skip the per-batch guards, bit-identically
# ----------------------------------------------------------------------
def _pr_engine():
    store = GraphStore.build(EDGES, num_partitions=8)
    return Engine(store, EngineOptions(num_threads=4))


def test_certified_operator_skips_guards_and_matches_guarded_path(monkeypatch):
    trusted = _pr_engine()
    r_trusted = pagerank(trusted, iterations=5)
    guarded = _pr_engine()
    monkeypatch.setattr(PageRankOp, "writes", None)
    r_guarded = pagerank(guarded, iterations=5)
    np.testing.assert_array_equal(r_trusted.ranks, r_guarded.ranks)

    assert trusted.guards_skipped > 0
    assert trusted.guard_invocations == 0
    assert guarded.guards_skipped == 0
    assert guarded.guard_invocations > 0


def test_uncertified_operator_still_pays_the_guard():
    engine = _pr_engine()
    op = UncertifiableOp(np.zeros(engine.num_vertices))
    engine.edge_map(Frontier.full(engine.num_vertices), op)
    assert engine.guard_invocations > 0
    assert engine.guards_skipped == 0


def test_parallel_requires_a_partition_pure_certificate():
    store = GraphStore.build(EDGES, num_partitions=8)
    engine = Engine(store, EngineOptions(num_threads=4, backend="threads:workers=2"))
    op = UncertifiableOp(np.zeros(engine.num_vertices))
    with pytest.raises(ValidationError, match="declares no `writes`"):
        engine.edge_map(Frontier.full(engine.num_vertices), op)
    engine.close()


@pytest.mark.parametrize("op_class", UNMODELLED, ids=lambda cls: cls.__name__)
def test_unmodelled_forms_are_unknown_refused_and_run_guarded(op_class):
    """An operator that declares nothing is never trusted: the strict
    backend refuses it, ``strict=0`` runs it in-process with serial's
    exact bits."""
    assert op_class.writes is None
    store = GraphStore.build(EDGES, num_partitions=8)

    def run(backend):
        with Engine(store, EngineOptions(num_threads=4, backend=backend)) as engine:
            op = op_class(np.zeros(engine.num_vertices))
            assert not engine._op_trusted(op)
            out = engine.edge_map(Frontier.full(engine.num_vertices), op)
            assert engine.backend_stats.batches_dispatched == 0
            assert engine.guard_invocations > 0 and engine.guards_skipped == 0
            return op.acc, out.as_sparse()

    with pytest.raises(ValidationError, match="declares no `writes`"):
        run("threads:workers=2")
    for got, want in zip(run("threads:workers=2:strict=0"), run("serial")):
        np.testing.assert_array_equal(got, want)


def test_parallel_admits_certified_operators(engine):
    store = GraphStore.build(EDGES, num_partitions=8)
    eng = Engine(store, EngineOptions(num_threads=4, backend="threads:workers=2"))
    out = eng.edge_map(Frontier.full(eng.num_vertices), _pagerank_op(eng.num_vertices))
    assert out is not None
    assert eng.backend_stats.batches_dispatched > 0
    eng.close()
