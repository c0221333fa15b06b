"""Deterministic, seeded network simulator for the remote object store.

Every request the :class:`~repro.resilience.remote.RemoteClient` issues
passes through a :class:`NetworkSimulator`, which models the network as
X-Stream models storage: a streamed, failure-prone medium rather than an
always-available function call.  The simulator injects

* **latency** — every request costs a seeded base-plus-jitter delay on
  the *simulated* clock (no wall-clock sleeps, so graphlint GL005 holds
  and runs stay bit-reproducible);
* **timeouts** (``net_timeout``) — the request never reaches the
  service and :class:`~repro.errors.NetTimeoutError` is raised after the
  transport timeout elapses;
* **connection resets** (``net_reset``) — for uploads, a *torn* payload
  (truncated or byte-flipped, seeded) reaches the service before
  :class:`~repro.errors.NetResetError` is raised: the classic
  partially-received PUT that only a commit-time integrity check
  catches;
* **throttling** (``net_throttle``) — an S3-style transient 503
  (:class:`~repro.errors.NetThrottleError`) after a penalty delay;
* **bounded-staleness reads** (``stale_read``) — a read is served from
  the key's previous version; the fault is one-shot, so a follow-up
  consistent read observes the fresh data.

Faults come from two deterministic sources: an explicit
:class:`~repro.resilience.faults.FaultPlan` whose network events are
keyed by the 0-based request index (``net_timeout@3`` fails the fourth
request), and/or seeded per-request ``fault_rates`` for chaos-style
soak tests, optionally silenced after ``fault_horizon_ops`` requests so
convergence-after-the-storm properties can be asserted.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..errors import (
    NetResetError,
    NetThrottleError,
    NetTimeoutError,
    ReproError,
    ValidationError,
)
from .faults import NET_FAULT_KINDS, FaultPlan

__all__ = ["NetworkSimulator"]


class NetworkSimulator:
    """Seeded fault-injecting transport with a simulated clock.

    Parameters
    ----------
    seed:
        Seed of the latency/damage/chaos stream; same seed (and same
        request sequence), same behaviour.
    base_latency_s, jitter_s:
        Each healthy request costs ``base + jitter * u`` simulated
        seconds, ``u`` uniform in ``[0, 1)``.
    timeout_s:
        Simulated time a ``net_timeout`` burns before the error.
    throttle_delay_s:
        Penalty delay of a ``net_throttle`` on top of the latency.
    fault_plan:
        Optional :class:`FaultPlan`; only its network kinds are
        consumed here (process/storage kinds are ignored), keyed by the
        0-based request index.
    fault_rates:
        Optional ``{kind: probability}`` over :data:`NET_FAULT_KINDS`
        for seeded chaos; probabilities must sum to <= 1.
    fault_horizon_ops:
        When set, ``fault_rates`` stop applying from this request index
        on — the storm ends and the network heals.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        base_latency_s: float = 0.002,
        jitter_s: float = 0.003,
        timeout_s: float = 0.5,
        throttle_delay_s: float = 0.05,
        fault_plan: FaultPlan | None = None,
        fault_rates: Mapping[str, float] | None = None,
        fault_horizon_ops: int | None = None,
    ) -> None:
        if base_latency_s < 0 or jitter_s < 0 or timeout_s < 0 or throttle_delay_s < 0:
            raise ValidationError("network delays must be non-negative")
        if fault_rates:
            unknown = set(fault_rates) - set(NET_FAULT_KINDS)
            if unknown:
                raise ValidationError(
                    f"unknown network fault kinds {sorted(unknown)}; "
                    f"expected {NET_FAULT_KINDS}"
                )
            if any(rate < 0 for rate in fault_rates.values()):
                raise ValidationError("fault rates must be non-negative")
            if sum(fault_rates.values()) > 1.0 + 1e-9:
                raise ValidationError("fault rates must sum to at most 1")
        self.seed = seed
        self.base_latency_s = base_latency_s
        self.jitter_s = jitter_s
        self.timeout_s = timeout_s
        self.throttle_delay_s = throttle_delay_s
        self.fault_plan = fault_plan
        self.fault_rates = dict(fault_rates or {})
        self.fault_horizon_ops = fault_horizon_ops
        self._rng = np.random.default_rng(seed)
        #: simulated wall clock in seconds; advanced by latency, faults
        #: and the client's backoff waits — never by real time.
        self.clock_s = 0.0
        #: 0-based index of the next request (the FaultPlan key space).
        self.op_index = 0
        self.requests = 0
        self.hedges = 0
        #: injected-fault counters by kind.
        self.fault_counts: dict[str, int] = {kind: 0 for kind in NET_FAULT_KINDS}

    # ------------------------------------------------------------------
    def advance(self, seconds: float) -> None:
        """Advance the simulated clock (the client's backoff 'sleep')."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.clock_s += seconds

    def _draw_latency(self) -> float:
        return self.base_latency_s + self.jitter_s * float(self._rng.random())

    def _next_fault(self, op_index: int) -> str | None:
        if self.fault_plan is not None:
            kind = self.fault_plan.take(NET_FAULT_KINDS, op_index)
            if kind is not None:
                return kind
        if self.fault_rates and (
            self.fault_horizon_ops is None or op_index < self.fault_horizon_ops
        ):
            draw = float(self._rng.random())
            acc = 0.0
            for kind in NET_FAULT_KINDS:  # fixed order keeps seeds stable
                acc += self.fault_rates.get(kind, 0.0)
                if draw < acc:
                    return kind
        return None

    def _damage(self, payload: bytes) -> bytes:
        """Torn-upload damage: truncate at a seeded cut, or flip a byte."""
        if len(payload) > 1 and int(self._rng.integers(2)) == 0:
            cut = int(self._rng.integers(1, len(payload)))
            return payload[:cut]
        if not payload:
            return b"\x00"  # a stray byte where none was sent
        flip_at = int(self._rng.integers(len(payload)))
        flipped = bytearray(payload)
        flipped[flip_at] ^= 0xFF
        return bytes(flipped)

    # ------------------------------------------------------------------
    def perform(
        self,
        op: str,
        execute: Callable,
        *,
        payload: bytes | None = None,
        stale_execute: Callable | None = None,
        hedge_after_s: float | None = None,
    ):
        """Run one request against the service through the simulated wire.

        ``execute`` is the service call; uploads pass their bytes via
        ``payload`` (so a reset can deliver a damaged prefix), reads may
        supply ``stale_execute`` serving the previous version.  With
        ``hedge_after_s``, a draw slower than that threshold triggers a
        hedged duplicate request and the faster of the two responds —
        the tail-latency cut of a real hedged GET.  Raises the typed
        :class:`~repro.errors.NetworkError` subclasses on injected
        faults.
        """
        index = self.op_index
        self.op_index += 1
        self.requests += 1
        latency = self._draw_latency()
        fault = self._next_fault(index)

        if fault == "net_timeout":
            self.fault_counts[fault] += 1
            self.clock_s += self.timeout_s
            raise NetTimeoutError(
                f"request {index} ({op}) timed out after {self.timeout_s}s"
            )
        if fault == "net_throttle":
            self.fault_counts[fault] += 1
            self.clock_s += latency + self.throttle_delay_s
            raise NetThrottleError(f"request {index} ({op}) throttled (503 SlowDown)")
        if fault == "net_reset":
            self.fault_counts[fault] += 1
            self.clock_s += 0.5 * latency  # the stream died part-way
            if payload is not None:
                try:
                    execute(self._damage(payload))  # torn bytes reach the service
                except ReproError:
                    pass  # the service may reject the torn frame outright
            raise NetResetError(f"request {index} ({op}) reset mid-stream")

        if hedge_after_s is not None and latency > hedge_after_s:
            # Primary is slow: issue a duplicate and race the responses.
            self.hedges += 1
            latency = min(latency, hedge_after_s + self._draw_latency())
        self.clock_s += latency

        if fault == "stale_read":
            self.fault_counts[fault] += 1
            if stale_execute is not None:
                return stale_execute()
            # A write cannot be served stale; the event still counts as
            # consumed (it targeted this request index).
        return execute(payload) if payload is not None else execute()
