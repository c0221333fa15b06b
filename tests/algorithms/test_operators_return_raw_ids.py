"""Operators hand back raw activated ids; the frontier does the one dedup.

For every operator the registry drives, a batch with repeated
destinations must build the same frontier as the form that ran
``np.unique(...).astype(VID_DTYPE)`` inside the operator, and as the
edge-at-a-time oracle.
"""

import numpy as np
import pytest

from repro._types import NO_VERTEX, VAL_DTYPE, VID_DTYPE
from repro.algorithms import registry
from repro.algorithms.bc import DependencyOp, SigmaOp
from repro.algorithms.bellman_ford import BellmanFordOp
from repro.algorithms.bfs import BFSOp
from repro.algorithms.bp import BPOp
from repro.algorithms.cc import CCOp
from repro.algorithms.pagerank import PageRankOp
from repro.algorithms.prdelta import PRDeltaOp
from repro.algorithms.spmv import SPMVOp
from repro.core.ops import process_batch
from repro.frontier.frontier import Frontier
from repro.graph.weights import WeightFn

N = 16
#: every (even) destination is hit several times; sources are odd, so no
#: update feeds a later edge and the edge-at-a-time oracle sees the batch's
#: own source values.
_rng = np.random.default_rng(5)
SRC = (_rng.integers(0, N // 2, 96) * 2 + 1).astype(VID_DTYPE)
DST = (_rng.integers(0, N // 2, 96) * 2).astype(VID_DTYPE)


def _half():
    """True on the low half of the vertices."""
    return np.arange(N) < N // 2


def _bfs_parent():
    parent = np.full(N, NO_VERTEX, dtype=VID_DTYPE)
    parent[: N // 4] = 0
    return parent


def _bf_dist():
    dist = np.full(N, np.inf, dtype=VAL_DTYPE)
    dist[::3] = 0.0
    return dist


#: operator class -> its constructor arguments, built fresh per call
#: (operators mutate them).
STATE = {
    SigmaOp: lambda: (np.ones(N, VAL_DTYPE), _half()),
    DependencyOp: lambda: (
        np.ones(N, VAL_DTYPE), np.zeros(N, VAL_DTYPE), np.arange(N) % 3,
    ),
    CCOp: lambda: (np.arange(N, dtype=VID_DTYPE),),
    PageRankOp: lambda: (np.ones(N), np.zeros(N)),
    BFSOp: lambda: (_bfs_parent(),),
    PRDeltaOp: lambda: (np.ones(N), np.zeros(N)),
    SPMVOp: lambda: (np.ones(N), np.zeros(N), WeightFn()),
    BellmanFordOp: lambda: (_bf_dist(), WeightFn()),
    BPOp: lambda: (
        np.full(N, 0.5), np.zeros(N), np.zeros(N), 0.1,
    ),
}
#: the one operator allowed to dedup: its first-writer store needs it.
DEDUPS = {BFSOp}


def test_every_registry_operator_has_a_case():
    driven = {p for spec in registry.ALGORITHMS.values() for p in spec.operators}
    assert driven == {f"{cls.__module__}:{cls.__name__}" for cls in STATE}


@pytest.mark.parametrize("cls", STATE, ids=lambda cls: cls.__name__)
def test_raw_ids_build_the_frontier_np_unique_built(cls):
    # process_batch hands SPMV and Bellman-Ford their weights, as every caller does
    acts = process_batch(cls(*STATE[cls]()), SRC, DST)
    old_form = np.unique(acts).astype(VID_DTYPE)
    assert old_form.size, "the batch must activate something"
    got = Frontier(N, sparse=acts).as_sparse()
    assert got.dtype == VID_DTYPE
    assert np.array_equal(got, old_form)
    if cls not in DEDUPS:
        assert acts.size > old_form.size, "operator deduplicated its result"

    oracle_op = cls(*STATE[cls]())
    oracle: set[int] = set()
    for k in range(SRC.size):
        one = process_batch(oracle_op, SRC[k : k + 1], DST[k : k + 1])
        oracle.update(one.tolist())
    assert got.tolist() == sorted(oracle)


@pytest.mark.parametrize("ids", [VID_DTYPE, np.intp])
def test_bellman_ford_winners_build_the_improving_edge_frontier(ids):
    """Bellman-Ford hands back only the edges that won the min.  With tied
    winning candidates (an explicit ``w`` of two values), the winners name
    the same vertices as every edge into an improved destination — the
    form that returned ``dst[dist[dst] < before]`` — in fewer ids."""
    src, dst = SRC.astype(ids), DST.astype(ids)
    w = 1.0 + (np.arange(SRC.size) % 2)
    before = _bf_dist()
    op = BellmanFordOp(before.copy(), WeightFn())
    acts = op.process_edges(src, dst, w)
    improving = dst[op.dist[dst] < before[dst]]
    assert Frontier(N, sparse=acts) == Frontier(N, sparse=improving)
    assert np.unique(acts).size < acts.size < improving.size, "ties and losers both occur"


@pytest.mark.parametrize("ids", [VID_DTYPE, np.intp])
def test_cc_activates_the_destinations_of_the_edges_that_lowered_a_label(ids):
    """CC hands back ``dst`` at the edges whose source label beat the
    destination's label as the batch found it: exactly the lowered
    vertices, named once per lowering edge, not once per edge into them."""
    src, dst = SRC.astype(ids), DST.astype(ids)
    labels0 = np.random.default_rng(7).permutation(N).astype(VID_DTYPE)
    op = CCOp(labels0.copy())
    acts = op.process_edges(src, dst)
    assert np.array_equal(acts, dst[labels0[src] < labels0[dst]])
    lowered = np.flatnonzero(op.labels < labels0)
    assert np.array_equal(np.unique(acts), lowered) and lowered.size
    assert acts.size < np.isin(dst, lowered).sum(), "an edge that lost still names its vertex"
    oracle = labels0.copy()
    for s, d in zip(SRC.tolist(), DST.tolist()):
        oracle[d] = min(oracle[d], oracle[s])
    assert np.array_equal(op.labels, oracle)
