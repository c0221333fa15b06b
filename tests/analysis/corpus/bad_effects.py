"""Known-bad operator corpus for the effect-inference rules (GL006-010).

Each class violates exactly one of the new rules; the tests assert the
full file yields exactly one finding per code.  The operators after them
are partition-pure and break, one each, a clause of the rule that lets a
run of partitions reach ``process_edges`` as one batch; the effect tests
and CI import the file for those.
"""

import numpy as np

from repro.core.ops import EdgeOperator

SCRATCH = np.zeros(64)


class HelperScatterOp(EdgeOperator):
    """GL006: the out-of-slice scatter hides inside a helper method."""

    combine = "add"

    def __init__(self, hits):
        self.hits = hits

    def process_edges(self, src, dst):
        self._bump(src)
        return dst

    def _bump(self, ids):
        np.add.at(self.hits, ids, 1)


class AliasNoCombineOp(EdgeOperator):
    """GL007: reads rank[src] while scattering rank[dst], combine undeclared."""

    combine = None

    def __init__(self, rank):
        self.rank = rank

    def process_edges(self, src, dst):
        np.add.at(self.rank, dst, self.rank[src])
        return dst


class ClosureEscapeOp(EdgeOperator):
    """GL008: writes a module-global array no snapshot or journal can see."""

    combine = "or"

    def process_edges(self, src, dst):
        SCRATCH[dst] = 1.0
        return dst


class PrefixSumOp(EdgeOperator):
    """GL009: a prefix scan threads batch order into the scattered values."""

    combine = "add"

    def __init__(self, contrib, total):
        self.contrib = contrib
        self.total = total

    def process_edges(self, src, dst):
        acc = np.cumsum(self.contrib[src])
        np.add.at(self.total, dst, acc)
        return dst


class VectorizeOp(EdgeOperator):
    """GL010: np.vectorize is outside the numpy subset the effect pass models."""

    combine = "add"

    def __init__(self, weights, out):
        self.weights = weights
        self.out = out

    def process_edges(self, src, dst):
        f = np.vectorize(lambda x: x * 0.5)
        np.add.at(self.out, dst, f(self.weights[src]))
        return dst


# ----------------------------------------------------------------------
# The split rule (``OperatorReport.edge_local``): each operator below is
# partition-pure, yet one ``process_edges`` call over a run of partitions
# is not the same as one call per partition — one per clause of the rule.
# ----------------------------------------------------------------------
class _SplitOp(EdgeOperator):
    combine = "add"

    def __init__(self, acc, x):
        self.acc = acc
        self.x = x


class SourceReadOp(_SplitOp):
    """Reads at ``src`` what it scatters at ``dst``: CC's Gauss–Seidel shape."""

    combine = "min"

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


class FirstWriterOp(_SplitOp):
    """BFS's ``np.unique`` first-writer claim.  Per destination the first
    edge is the same in both shapes, but ``np.unique`` is batch-wide: the
    pass does not tell ``dst`` apart from what it cannot split."""

    def process_edges(self, src, dst):
        claimed, first = np.unique(dst, return_index=True)
        self.acc[claimed] = self.x[src[first]]
        return claimed


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


#: the operators above that break the rule, in clause order.
SPLIT_OBSERVABLE = (
    SourceReadOp, PerBatchMeanOp, BatchSumOp, FirstWriterOp, PrefixOp, PositionIndexOp,
)


class MaskedSubsetOp(_SplitOp):
    """The control, edge-local: a boolean-masked subset of the batch and
    a gather through it: ``certified.KnockOp``'s mask, scattered with
    ``maximum.at``."""

    combine = "max"

    def process_edges(self, src, dst):
        live = (self.x[dst] > 0) & (src != dst)
        src, dst = src[live], dst[live]
        np.maximum.at(self.acc, dst, self.x[src])
        return dst
