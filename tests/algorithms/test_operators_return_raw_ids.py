"""Operators hand back raw activated ids; the frontier does the one dedup.

For every operator the registry drives (and the k-core, MIS and radii
operators beside them) a batch with repeated destinations must build the
same frontier as the form that ran ``np.unique(...).astype(VID_DTYPE)``
inside the operator, and as the edge-at-a-time oracle.
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
from repro.algorithms.kcore import PeelOp
from repro.algorithms.mis import KnockOp, MaxPriorityOp
from repro.algorithms.pagerank import PageRankOp
from repro.algorithms.prdelta import PRDeltaOp
from repro.algorithms.radii import BitOrOp
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


def _half(dtype=bool):
    """True/one on the low half of the vertices."""
    return (np.arange(N) < N // 2).astype(dtype)


def _bfs_parent():
    parent = np.full(N, NO_VERTEX, dtype=VID_DTYPE)
    parent[: N // 4] = 0
    return parent


def _bf_dist():
    dist = np.full(N, np.inf, dtype=VAL_DTYPE)
    dist[::3] = 0.0
    return dist


def _bits():
    bits = np.zeros(N, dtype=np.uint64)
    bits[::3] = np.uint64(1) << np.arange(bits[::3].size, dtype=np.uint64)
    return bits


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
    PeelOp: lambda: (np.full(N, 9, np.int64), ~_half()),
    MaxPriorityOp: lambda: (
        np.linspace(0, 1, N), np.full(N, -1.0), _half(np.int8),
    ),
    KnockOp: lambda: (_half(np.int8), np.zeros(N, bool)),
    BitOrOp: lambda: (_bits(), np.zeros(N, np.uint64)),
}
#: the one operator allowed to dedup: its first-writer store needs it.
DEDUPS = {BFSOp}


def test_every_registry_operator_has_a_case():
    driven = {p for spec in registry.ALGORITHMS.values() for p in spec.operators}
    assert driven <= {f"{cls.__module__}:{cls.__name__}" for cls in STATE}


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
