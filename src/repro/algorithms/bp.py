"""Loopy belief propagation on a pairwise binary MRF (Table II: BP).

Each vertex carries a binary random variable with a synthetic prior; each
edge carries the smoothing potential ``psi = [[1-eps, eps], [eps, 1-eps]]``.
Per iteration every active vertex pushes a message derived from its current
belief along its out-edges, and destinations combine incoming messages with
their prior in log-space.  Ten dense iterations, matching the paper's BP
configuration (Polymer's benchmark).

Substitution note (documented in DESIGN.md): framework-scale BP codes
commonly use this *belief-product* form, which approximates sum-product by
deriving the message from the sender's full belief rather than excluding
the receiver's own previous message.  It has the same memory-access
pattern (edge-oriented, dense, forward) as exact BP — which is what the
paper measures — while needing no per-edge message state.  An exact
sum-product implementation with per-edge messages is provided separately
in :mod:`repro.algorithms.bp_exact` and used to sanity-check this one on
trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._types import VAL_DTYPE, VID_DTYPE
from ..core.engine import Engine
from ..core.ops import EdgeOperator
from ..core.stats import RunStats
from ..frontier.frontier import Frontier
from ..graph.weights import edge_weights

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..resilience.checkpoint import CheckpointSession

__all__ = ["belief_propagation", "BPResult", "BPOp", "default_priors"]


def default_priors(num_vertices: int, *, seed: int = 0, strength: float = 0.8) -> np.ndarray:
    """Synthetic per-vertex priors P(x=1) in ``[1-strength, strength]``.

    Deterministic in (n, seed) via the same hash as the edge weights.
    """
    ids = np.arange(num_vertices, dtype=np.int64)
    unit = edge_weights(ids, ids[::-1], low=0.0, high=1.0, seed=seed)
    return (1.0 - strength) + unit * (2.0 * strength - 1.0)


class BPOp(EdgeOperator):
    """Accumulate log-messages for both states into the destinations."""

    combine = "add"

    def __init__(
        self,
        belief: np.ndarray,
        log_msg_1: np.ndarray,
        log_msg_0: np.ndarray,
        eps: float,
    ) -> None:
        self.belief = belief
        self.log_msg_1 = log_msg_1
        self.log_msg_0 = log_msg_0
        self.eps = eps

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        b = self.belief[src]
        m1 = self.eps * (1.0 - b) + (1.0 - self.eps) * b
        m0 = (1.0 - self.eps) * (1.0 - b) + self.eps * b
        np.add.at(self.log_msg_1, dst, np.log(m1))
        np.add.at(self.log_msg_0, dst, np.log(m0))
        return dst.astype(VID_DTYPE, copy=False)


@dataclass(frozen=True)
class BPResult:
    """Final beliefs P(x=1), iteration count, last belief change, stats."""

    beliefs: np.ndarray
    iterations: int
    last_delta: float
    stats: RunStats


def belief_propagation(
    engine: Engine,
    priors: np.ndarray | None = None,
    *,
    eps: float = 0.1,
    iterations: int = 10,
    tolerance: float = 0.0,
    checkpoint: CheckpointSession | None = None,
) -> BPResult:
    """Run ``iterations`` dense rounds of belief propagation."""
    n = engine.num_vertices
    if priors is None:
        priors = default_priors(n)
    priors = np.asarray(priors, dtype=VAL_DTYPE)
    if priors.shape != (n,):
        raise ValueError(f"priors must have shape ({n},), got {priors.shape}")
    if np.any((priors <= 0.0) | (priors >= 1.0)):
        raise ValueError("priors must lie strictly inside (0, 1)")
    belief = priors.copy()
    log_prior_1 = np.log(priors)
    log_prior_0 = np.log1p(-priors)
    frontier = Frontier.full(n)
    engine.reset_stats()
    it = 0
    delta = float("inf")
    if checkpoint is not None:
        # Priors are recomputed from the inputs; only the belief and the
        # last change (a 1-element array) are saved.
        it, saved = checkpoint.restore()
        if saved is not None:
            belief = saved["belief"].astype(VAL_DTYPE)
            delta = float(saved["last_delta"][0])
    converged_on_resume = it > 0 and tolerance > 0.0 and delta < tolerance
    # One operator per run, updated in place each iteration (the copies
    # and fill(0.0) write the same values the per-iteration arrays held).
    op = BPOp(
        belief.copy(),
        np.zeros(n, dtype=VAL_DTYPE),
        np.zeros(n, dtype=VAL_DTYPE),
        eps,
    )
    if not converged_on_resume:
        for it in range(it + 1, iterations + 1):
            op.belief[...] = belief
            op.log_msg_1.fill(0.0)
            op.log_msg_0.fill(0.0)
            engine.edge_map(frontier, op)
            z1 = log_prior_1 + op.log_msg_1
            z0 = log_prior_0 + op.log_msg_0
            # Clamp the log-odds: beyond +-50 the sigmoid saturates anyway and
            # np.exp would overflow.
            new_belief = 1.0 / (1.0 + np.exp(np.clip(z0 - z1, -50.0, 50.0)))
            delta = float(np.abs(new_belief - belief).max())
            belief = new_belief
            if checkpoint is not None:
                checkpoint.save(
                    it, {"belief": belief, "last_delta": np.array([delta], dtype=VAL_DTYPE)}
                )
            if tolerance > 0.0 and delta < tolerance:
                break
    return BPResult(
        beliefs=belief, iterations=it, last_delta=delta, stats=engine.reset_stats()
    )
