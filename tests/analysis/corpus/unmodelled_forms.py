"""Operators that declare nothing, one per form of write a reader of the
source cannot pin to ``dst``.

Each class is one minimal ``acc[dst] += 1`` operator wrapped in one such
form: a loop-carried or conditional index, a call through a lambda,
``out=``, an in-place method, a rebound attribute, a helper reached by
keyword or recursion, a weighted operator's ``w`` used as ids.  None
declares ``writes``, so a strict concurrent backend refuses every one
and ``strict=0`` runs it on the guarded serial path;
``tests/analysis/test_effects.py`` holds each to both.

The last four are calls of ``repro.core.ops.scatter_add_gather`` in
shapes other than ``helper(acc, dst, x, src)``.  Two of them the helper
itself would refuse, so they sit behind a test that is never true.
"""

import numpy as np

from repro.core.ops import EdgeOperator, scatter_add_gather
from repro.core.ops import scatter_add_gather as rebound_helper  # HelperShadowedOp rebinds it
from repro.graph.weights import WeightFn


class _AccOp(EdgeOperator):
    def __init__(self, acc):
        self.acc = acc


class ForLoopCarriedIndexOp(_AccOp):
    """The second trip scatters through ``src``; one walk of the body sees ``dst``."""

    def process_edges(self, src, dst):
        idx = dst
        for _ in range(2):
            np.add.at(self.acc, idx, 1.0)
            idx = src
        return dst


class WhileLoopCarriedIndexOp(_AccOp):
    def process_edges(self, src, dst):
        idx = dst
        trips = 0
        while trips < 2:
            np.add.at(self.acc, idx, 1.0)
            idx = src
            trips = trips + 1
        return dst


class CalledLambdaOp(_AccOp):
    """The scatter sits in a lambda body that is called but never read."""

    def process_edges(self, src, dst):
        (lambda: np.add.at(self.acc, src, 1.0))()
        return dst


class OutKeywordOp(_AccOp):
    """``out=`` makes a value function write every slot of its target."""

    def process_edges(self, src, dst):
        np.add(self.acc, 1.0, out=self.acc)
        return dst


class PositionalOutOp(_AccOp):
    def process_edges(self, src, dst):
        np.add(self.acc, 1.0, self.acc)
        return dst


class AliasAugAssignOp(_AccOp):
    """``+=`` on a local aliasing state is an in-place whole-array write."""

    def process_edges(self, src, dst):
        acc = self.acc
        acc += 1.0
        return dst


class UnlistedKeywordOp(_AccOp):
    """A keyword no table names may select a write target or a different result."""

    def process_edges(self, src, dst):
        np.add.at(self.acc, dst, np.sum(self.acc[src], axis=0))
        return dst


class WithOp(_AccOp):
    def process_edges(self, src, dst):
        with np.errstate(all="ignore"):
            np.add.at(self.acc, dst, 1.0)
        return dst


class TryOp(_AccOp):
    def process_edges(self, src, dst):
        try:
            np.add.at(self.acc, dst, 1.0)
        except FloatingPointError:
            np.add.at(self.acc, src, 1.0)
        return dst


class ConditionalIndexOp(_AccOp):
    def process_edges(self, src, dst):
        np.add.at(self.acc, src if self.acc.size % 2 else dst, 1.0)
        return dst


class StarredScatterOp(_AccOp):
    def process_edges(self, src, dst):
        np.add.at(*(self.acc, src, 1.0))
        return dst


class KeywordHelperOp(_AccOp):
    """The helper's ids are bound by keyword."""

    def process_edges(self, src, dst):
        self._bump(ids=src)
        return dst

    def _bump(self, ids):
        np.add.at(self.acc, ids, 1.0)


class InPlaceMethodOp(_AccOp):
    def process_edges(self, src, dst):
        self.acc.fill(1.0)
        return dst


class RebindStateOp(_AccOp):
    def process_edges(self, src, dst):
        self.acc = np.zeros(self.acc.size)
        return dst


class RecursiveHelperOp(_AccOp):
    """A helper that calls itself (behind a test that is never true)."""

    def process_edges(self, src, dst):
        self._again(dst)
        return dst

    def _again(self, ids):
        np.add.at(self.acc, ids, 1.0)
        if ids.size < 0:
            self._again(ids)


class WeightIndexedScatterOp(_AccOp):
    """A weighted operator's ``w`` is an edge-parallel value, never ids: a
    scatter through it could land in any partition's range.  Weights are
    floats, so the scatter sits behind a test that is never true."""

    weight_fn = WeightFn()

    def process_edges(self, src, dst, w):
        np.add.at(self.acc, dst, w)
        if dst.size < 0:
            np.add.at(self.acc, w, 1.0)
        return dst


class HelperKeywordOp(_AccOp):
    """Keywords can bind ``dst``/``src`` the other way round."""

    def process_edges(self, src, dst):
        scatter_add_gather(self.acc, dst, x=np.ones(self.acc.size), src=src)
        return dst


class HelperArityOp(_AccOp):
    def process_edges(self, src, dst):
        np.add.at(self.acc, dst, 1.0)
        if dst.size < 0:
            scatter_add_gather(self.acc, src, np.ones(self.acc.size))
        return dst


class HelperShadowedOp(_AccOp):
    """A local of the imported name: the call no longer reaches the helper."""

    def process_edges(self, src, dst):
        rebound_helper = np.add.at
        rebound_helper(self.acc, dst, 1.0)
        return dst


class HelperAliasedOp(_AccOp):
    """``acc is x``: the fused gather would read what it just wrote, so the
    helper raises — the shape (``SigmaOp``'s) that stays on ``np.add.at``."""

    def process_edges(self, src, dst):
        np.add.at(self.acc, dst, 1.0)
        if dst.size < 0:
            scatter_add_gather(self.acc, dst, self.acc, src)
        return dst
