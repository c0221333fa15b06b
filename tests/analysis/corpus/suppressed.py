"""Suppression corpus: real GL001 and GL006 violations silenced inline."""

import numpy as np

from repro._types import VID_DTYPE
from repro.core.ops import EdgeOperator


class SuppressedScatterOp(EdgeOperator):
    """Same defect as DirectScatterOp, acknowledged via a directive."""

    def __init__(self, state):
        self.state = state

    def process_edges(self, src, dst):
        self.state[dst] += 1.0  # graphlint: disable=GL001
        return dst


class LastWriterDemoOp(EdgeOperator):
    """Intentionally order-dependent: ``state[src] = dst``, last writer wins.

    Sources are *not* partitioned — the same source occurs in many
    partitions' edge batches — so whichever partition runs last owns the
    final value: a write-write race on a non-commutative combine, which
    the lattice harness's write-set line names.
    """

    combine = None

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        # the out-of-slice write is the whole point of this demo operator
        self.state[src] = dst.astype(self.state.dtype)  # graphlint: disable=GL006
        return np.empty(0, dtype=VID_DTYPE)
