"""Certified examples: partition-pure operators no registered algorithm drives.

Each class pins one shape the effect pass certifies that no Table II
operator exercises.  ``tests/analysis/test_effects.py`` holds each to
its verdict and split reasons, and the CI ``lint`` job holds each to
``partition-pure`` and its edge-locality.  ``bad_effects.MaskedSubsetOp``
pins the ``maximum.at`` scatter through a boolean-masked subset.
"""

import numpy as np

from repro._types import VID_DTYPE
from repro.core.ops import EdgeOperator

UNDECIDED = 0


class KnockOp(EdgeOperator):
    """Knock the winners' undecided neighbours out of contention (Luby MIS).

    The destination-indexed constant store is idempotent, so duplicate
    destinations and partition order are both harmless: partition-pure
    and edge-local.
    """

    combine = "or"

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

    A ``bitwise_or.at`` scatter at ``dst``: partition-pure.  Not
    edge-local, conservatively: the early return on an empty batch reads
    ``.size``, though it changes nothing.
    """

    combine = "or"

    def __init__(self, bits, nxt):
        self.bits = bits
        self.nxt = nxt

    def process_edges(self, src, dst):
        if src.size == 0:
            return np.empty(0, dtype=VID_DTYPE)
        np.bitwise_or.at(self.nxt, dst, self.bits[src])
        return dst[(self.nxt[dst] | self.bits[dst]) != self.bits[dst]]
