"""The supervised engine refuses operators its snapshot cannot roll back.

The default ``EdgeOperator.snapshot()`` copies only numpy-array
attributes.  An operator holding a dict/list/set under supervision would
be *silently under-snapshotted*: a mid-phase fault would roll back the
arrays but replay against the corrupted container.  The engine now
raises a clear :class:`~repro.errors.ValidationError` up front instead.
"""

import numpy as np
import pytest

from repro._types import VID_DTYPE
from repro.core import Engine, EngineOptions
from repro.core.ops import EdgeOperator, snapshot_blind_spots
from repro.errors import ValidationError
from repro.frontier.frontier import Frontier
from repro.layout import GraphStore
from repro.resilience import FaultPlan, ResiliencePolicy


class DictTallyOp(EdgeOperator):
    """Array state plus a dict the default snapshot cannot see."""

    def __init__(self, n):
        self.accum = np.zeros(n)
        self.tally = {}

    def process_edges(self, src, dst):
        np.add.at(self.accum, dst, 1.0)
        self.tally[len(self.tally)] = int(dst.size)
        return np.empty(0, dtype=VID_DTYPE)


class CoveredDictTallyOp(DictTallyOp):
    """Same state, but snapshot/restore cover the dict — acceptable."""

    def snapshot(self):
        return {"accum": self.accum.copy(), "tally": dict(self.tally)}

    def restore(self, saved):
        self.accum[...] = saved["accum"]
        self.tally.clear()
        self.tally.update(saved["tally"])


class SnapshotOnlyOp(DictTallyOp):
    """Covers the dict in ``snapshot`` but inherits the array ``restore``,
    which would store the saved dict under an ``Ellipsis`` key."""

    def snapshot(self):
        return {"accum": self.accum.copy(), "tally": dict(self.tally)}


class DeclaredListOp(EdgeOperator):
    """Declares its one written array, and holds a list handed in: a
    declaration says what an operator writes, not what it holds."""

    writes = ("accum",)

    def __init__(self, accum, history):
        self.accum = accum
        self.history = history

    def process_edges(self, src, dst):
        np.add.at(self.accum, dst, 1.0)
        return dst


def _supervised_engine(edges, policy=None):
    store = GraphStore.build(edges, num_partitions=8)
    policy = policy or ResiliencePolicy(max_retries=2)
    return Engine(store, EngineOptions(num_threads=4), resilience=policy)


def test_blind_spots_reported_for_inherited_snapshot(small_rmat):
    assert snapshot_blind_spots(DictTallyOp(4)) == ["tally"]
    assert snapshot_blind_spots(CoveredDictTallyOp(4)) == []
    assert snapshot_blind_spots(SnapshotOnlyOp(4)) == ["tally"]
    from collections import deque

    op = DictTallyOp(4)
    op.tally = deque()  # as invisible to the default snapshot as a dict
    assert snapshot_blind_spots(op) == ["tally"]


@pytest.mark.parametrize("plan", ["worker_crash@0:0", "oom@0"])
def test_one_overridden_hook_is_refused_like_none(small_rmat, plan):
    """Overriding ``snapshot`` alone leaves the inherited ``restore`` to
    write the saved dict into the live one: refused before any update."""
    policy = ResiliencePolicy(max_retries=2, fault_plan=FaultPlan.from_spec(plan))
    engine = _supervised_engine(small_rmat, policy)
    op = SnapshotOnlyOp(small_rmat.num_vertices)
    with pytest.raises(ValidationError, match="tally"):
        engine.edge_map(Frontier.full(small_rmat.num_vertices), op)
    assert op.tally == {} and not op.accum.any()


def test_supervised_engine_rejects_uncovered_dict_state(small_rmat):
    engine = _supervised_engine(small_rmat)
    op = DictTallyOp(small_rmat.num_vertices)
    with pytest.raises(ValidationError, match="tally"):
        engine.edge_map(Frontier.full(small_rmat.num_vertices), op)
    # the refusal happened before any partial update was applied
    assert not op.accum.any()
    assert op.tally == {}


def test_supervised_engine_rejects_a_declared_operator_holding_a_list(small_rmat):
    engine = _supervised_engine(small_rmat)
    op = DeclaredListOp(np.zeros(small_rmat.num_vertices), [])
    with pytest.raises(ValidationError, match="history"):
        engine.edge_map(Frontier.full(small_rmat.num_vertices), op)
    assert not op.accum.any()


def test_supervised_engine_accepts_overridden_hooks(small_rmat):
    engine = _supervised_engine(small_rmat)
    op = CoveredDictTallyOp(small_rmat.num_vertices)
    engine.edge_map(Frontier.full(small_rmat.num_vertices), op)
    assert op.accum.sum() == small_rmat.num_edges
    assert sum(op.tally.values()) == small_rmat.num_edges


def test_overridden_hooks_roll_back_dict_state_on_retry(small_rmat):
    """A mid-phase fault must restore the dict, not just the arrays."""
    policy = ResiliencePolicy(
        max_retries=2, fault_plan=FaultPlan.from_spec("partition@0:1")
    )
    engine = _supervised_engine(small_rmat, policy)
    op = CoveredDictTallyOp(small_rmat.num_vertices)
    engine.edge_map(Frontier.full(small_rmat.num_vertices), op)
    assert op.accum.sum() == small_rmat.num_edges
    assert sum(op.tally.values()) == small_rmat.num_edges


def test_unsupervised_engine_still_allows_dict_state(small_rmat):
    """Without a resilience policy there is no rollback to corrupt."""
    store = GraphStore.build(small_rmat, num_partitions=8)
    engine = Engine(store, EngineOptions(num_threads=4))
    op = DictTallyOp(small_rmat.num_vertices)
    engine.edge_map(Frontier.full(small_rmat.num_vertices), op)
    assert op.accum.sum() == small_rmat.num_edges
