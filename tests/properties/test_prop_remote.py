"""Remote-store resilience properties (hypothesis).

Three properties the ISSUE pins down:

(a) **Backoff is bounded and deterministic** — every delay of the shared
    :class:`BackoffSchedule` is ``<= cap`` regardless of attempt number
    or jitter draw, and a fixed seed replays the identical sequence.

(b) **Multipart commit idempotence under torn uploads** — whatever
    pattern of ``net_reset`` faults tears the upload stream, the
    client's re-upload loop converges to exactly one verified committed
    generation whose bytes equal the original payload; no torn bytes are
    ever served.

(c) **The circuit breaker never wedges open** — after an arbitrary
    finite fault schedule ends, a bounded number of (cooldown, probe)
    cycles always returns the breaker to ``closed`` and requests flow
    again.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import RemoteUnavailableError
from repro.resilience import (
    BackoffSchedule,
    CircuitBreaker,
    FaultPlan,
    NetworkSimulator,
    ObjectService,
    RemoteClient,
)

pytestmark = pytest.mark.faultinjection


# ----------------------------------------------------------------------
# (a) backoff: bounded by cap, deterministic under a fixed seed
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    base=st.floats(0.0, 10.0, allow_nan=False),
    factor=st.floats(1.0, 8.0, allow_nan=False),
    cap=st.floats(0.0, 60.0, allow_nan=False),
    jitter=st.floats(0.0, 4.0, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
    attempts=st.integers(1, 40),
)
def test_backoff_delays_bounded_by_cap_and_seed_deterministic(
    base, factor, cap, jitter, seed, attempts
):
    schedule = BackoffSchedule(base=base, factor=factor, cap=cap, jitter=jitter, seed=seed)
    first = [schedule.delay(k) for k in range(attempts)]
    assert all(0.0 <= d <= cap for d in first), "a delay escaped the cap"
    # non-decreasing in expectation is NOT guaranteed with jitter, but
    # determinism is: rewinding the stream replays the exact sequence
    schedule.reset()
    second = [schedule.delay(k) for k in range(attempts)]
    assert first == second
    # and an independently built schedule with the same seed agrees too
    other = BackoffSchedule(base=base, factor=factor, cap=cap, jitter=jitter, seed=seed)
    assert [other.delay(k) for k in range(attempts)] == first


# ----------------------------------------------------------------------
# (b) multipart commit: torn uploads converge to one verified generation
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    payload_len=st.integers(1, 400),
    part_bytes=st.integers(1, 64),
    reset_ops=st.sets(st.integers(0, 30), max_size=8),
    seed=st.integers(0, 10_000),
)
# five consecutive resets: the default breaker's failure threshold
@example(payload_len=1, part_bytes=1, reset_ops={0, 1, 2, 3, 4}, seed=0)
def test_torn_multipart_uploads_converge_to_one_verified_generation(
    tmp_path_factory, payload_len, part_bytes, reset_ops, seed
):
    tmp = tmp_path_factory.mktemp("remote")
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size=payload_len).astype(np.uint8).tobytes()
    plan = FaultPlan.from_spec(",".join(f"net_reset@{i}" for i in sorted(reset_ops)))
    service = ObjectService(tmp / "objects")
    client = RemoteClient(
        service,
        NetworkSimulator(seed=seed, fault_plan=plan),
        part_bytes=part_bytes,
        max_attempts=12,
        deadline_s=1e9,  # this property is about convergence, not deadlines
        backoff=BackoffSchedule(base=0.001, cap=0.01, seed=seed),
        # nor about the breaker: keep its threshold above every run of
        # consecutive resets the strategy can draw (max_size=8)
        breaker=CircuitBreaker(failure_threshold=9),
    )
    etag = client.put_object("k", payload)
    data, meta = client.get_object("k", expect_etag=etag)
    assert data == payload                      # bytes survive the storm intact
    assert meta["generation"] == 1              # exactly one committed generation
    assert service.pending_uploads() == []      # no abandoned upload state
    # a verbatim re-upload is idempotent: still one key, next generation
    client.net.fault_plan = None
    client.put_object("k", payload)
    assert service.list_objects() == ["k"]
    assert client.get_object("k")[0] == payload


# ----------------------------------------------------------------------
# (c) the breaker never wedges open once the fault schedule ends
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    fault_ops=st.integers(0, 25),
    seed=st.integers(0, 10_000),
    max_attempts=st.integers(1, 4),
)
def test_breaker_always_recloses_after_the_storm(
    tmp_path_factory, fault_ops, seed, max_attempts
):
    tmp = tmp_path_factory.mktemp("remote")
    rng = np.random.default_rng(seed)
    kinds = ("net_timeout", "net_reset", "net_throttle")
    spec = ",".join(
        f"{kinds[int(rng.integers(len(kinds)))]}@{i}" for i in range(fault_ops)
    )
    client = RemoteClient(
        ObjectService(tmp / "objects"),
        NetworkSimulator(seed=seed, fault_plan=FaultPlan.from_spec(spec) if spec else None),
        max_attempts=max_attempts,
        deadline_s=1e9,
        backoff=BackoffSchedule(base=0.001, cap=0.01, seed=seed),
    )
    # hammer the client until the schedule is spent; every (cooldown,
    # probe) cycle must make progress, so the loop is bounded
    for _ in range(2 * fault_ops + 2):
        try:
            client.list_objects()
            break
        except RemoteUnavailableError:
            client.net.advance(client.breaker.cooldown_s)
    else:
        pytest.fail("the breaker wedged open after the fault schedule ended")
    assert client.breaker.state == "closed"
    assert client.list_objects() == []  # traffic flows again
