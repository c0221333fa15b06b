"""The shared-memory process backend: bit-identity, faults, admission.

The contract under test is the tentpole one: for every certified
algorithm, running the partitioned kernels on a worker pool over
``multiprocessing.shared_memory`` produces *bit-identical* results to
the serial reference path, across worker counts and partition orders —
and every failure (dead pool, tampered certificate, uncertified
operator) degrades into the serial path instead of corrupting state.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.algorithms import registry
from repro.algorithms.pagerank import pagerank
from repro.analysis.certificate import signed_report_token
from repro.analysis.sanitizer import default_graph
from repro.core import Engine, EngineOptions
from repro.core.backend import (
    ProcessBackend,
    _WORKER_VERIFIED,
    _worker_verify_operator,
)
from repro.errors import BackendError, ValidationError
from repro.frontier.frontier import Frontier
from repro.layout.store import GraphStore
from tests.analysis.test_effects import UncertifiableOp

EDGES = default_graph()


@pytest.fixture(scope="module")
def store():
    return GraphStore.build(EDGES, num_partitions=8)


def _results(engine, code):
    spec = registry.get(code)
    return registry.result_arrays(spec.run(engine))


def _assert_identical(serial, concurrent, code):
    assert serial.keys() == concurrent.keys()
    for key in serial:
        np.testing.assert_array_equal(
            serial[key], concurrent[key],
            err_msg=f"{code}: field {key!r} differs between serial and process",
        )


# ----------------------------------------------------------------------
# bit-identity across the whole registry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", sorted(registry.names()))
def test_every_algorithm_is_bit_identical_under_the_process_backend(store, code):
    serial = _results(Engine(store, EngineOptions(num_threads=4)), code)
    engine = Engine(
        store, EngineOptions(num_threads=4, backend="process:workers=2")
    )
    try:
        concurrent = _results(engine, code)
        _assert_identical(serial, concurrent, code)
        assert engine.backend_stats.fallbacks == 0
        assert engine.backend_stats.partitions_dispatched > 0
        assert engine.backend_stats.workers_spawned == 2
        assert engine.backend_stats.shm_bytes_mapped > 0
    finally:
        engine.close()


@pytest.mark.parametrize("order", ["reverse", "shuffle"])
def test_partition_order_does_not_change_the_result(store, order):
    serial = _results(Engine(store, EngineOptions(num_threads=4)), "PR")
    engine = Engine(
        store,
        EngineOptions(
            num_threads=4, backend="process:workers=2", partition_order=order
        ),
    )
    try:
        _assert_identical(serial, _results(engine, "PR"), f"PR/{order}")
        assert engine.backend_stats.fallbacks == 0
    finally:
        engine.close()


def test_single_worker_pool_matches_serial(store):
    serial = _results(Engine(store, EngineOptions(num_threads=4)), "CC")
    engine = Engine(
        store, EngineOptions(num_threads=4, backend="process:workers=1")
    )
    try:
        _assert_identical(serial, _results(engine, "CC"), "CC/workers=1")
    finally:
        engine.close()


def test_sparse_phase_runs_in_process_and_dispatches_nothing(store):
    from repro.algorithms.pagerank import PageRankOp

    n = store.num_vertices
    few = np.flatnonzero(store.out_degrees == 1)[:4]
    op = PageRankOp(np.ones(n), np.zeros(n))
    with Engine(store, EngineOptions(num_threads=4, backend="process:workers=2")) as engine:
        engine.edge_map(Frontier.full(n), op)  # a dense phase does use the pool
        batches = engine.backend_stats.batches_dispatched
        assert batches == 1
        engine.edge_map(Frontier(n, sparse=few), op)
        assert engine.stats.edge_maps[-1].layout == "csr"
        assert engine.backend_stats.batches_dispatched == batches


def test_stats_snapshot_is_attached_to_run_stats(store):
    engine = Engine(
        store, EngineOptions(num_threads=4, backend="process:workers=2")
    )
    try:
        result = pagerank(engine, iterations=3)
        assert result.stats.backend is not None
        assert result.stats.backend.kind == "process"
        assert result.stats.backend.partitions_dispatched > 0
        # the snapshot is detached: further runs must not mutate it
        frozen = result.stats.backend.partitions_dispatched
        pagerank(engine, iterations=2)
        assert result.stats.backend.partitions_dispatched == frozen
    finally:
        engine.close()


# ----------------------------------------------------------------------
# fault injection: a dead pool degrades to serial, bit-identically
# ----------------------------------------------------------------------
def test_killed_workers_degrade_to_serial_with_the_correct_result(store):
    serial = _results(Engine(store, EngineOptions(num_threads=4)), "PR")
    engine = Engine(
        store, EngineOptions(num_threads=4, backend="process:workers=2")
    )
    try:
        # Warm the pool, then kill every worker out from under it.
        pagerank(engine, iterations=1)
        backend = engine._execution_backend()
        pids = backend.worker_pids()
        assert pids, "pool should be live after a concurrent phase"
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        time.sleep(0.1)

        concurrent = _results(engine, "PR")
        _assert_identical(serial, concurrent, "PR/killed-pool")
        assert engine.backend_stats.fallbacks >= 1
        assert engine.backend_stats.kind == "serial"
        assert any("falling back to serial" in line for line in engine.resilience_log)
    finally:
        engine.close()


# ----------------------------------------------------------------------
# certificate re-verification at worker attach time
# ----------------------------------------------------------------------
def _pr_op_class():
    from repro.algorithms.pagerank import PageRankOp

    return PageRankOp


def test_worker_accepts_an_authentic_certificate():
    cls = _pr_op_class()
    _WORKER_VERIFIED.discard(cls)
    _worker_verify_operator(cls, signed_report_token(cls))
    assert cls in _WORKER_VERIFIED


def test_worker_rejects_a_tampered_certificate():
    cls = _pr_op_class()
    _WORKER_VERIFIED.discard(cls)
    payload, signature = signed_report_token(cls)
    tampered = dict(payload, level="partition_pure", name=payload["name"])
    tampered["reasons"] = ["edited by hand"]
    with pytest.raises(BackendError, match="signature failed"):
        _worker_verify_operator(cls, (tampered, signature))
    assert cls not in _WORKER_VERIFIED


def test_worker_rejects_a_certificate_for_a_different_class():
    from repro.algorithms.cc import CCOp

    cls = _pr_op_class()
    _WORKER_VERIFIED.discard(cls)
    with pytest.raises(BackendError, match="names"):
        _worker_verify_operator(cls, signed_report_token(CCOp))
    assert cls not in _WORKER_VERIFIED


def test_worker_rejects_an_uncertified_operator_even_with_a_valid_token():
    # The token is authentic — it honestly says "not partition-pure" —
    # and the worker must still refuse to run the class concurrently.
    cls = UncertifiableOp
    _WORKER_VERIFIED.discard(cls)
    with pytest.raises(BackendError, match="not certified partition-pure"):
        _worker_verify_operator(cls, signed_report_token(cls))
    assert cls not in _WORKER_VERIFIED


# ----------------------------------------------------------------------
# admission: strict refuses, strict=0 serialises
# ----------------------------------------------------------------------
def test_strict_backend_refuses_uncertified_operators(store):
    engine = Engine(
        store, EngineOptions(num_threads=4, backend="process:workers=2")
    )
    try:
        op = UncertifiableOp(np.zeros(engine.num_vertices))
        with pytest.raises(ValidationError, match="certif"):
            engine.edge_map(Frontier.full(engine.num_vertices), op)
    finally:
        engine.close()


def test_nonstrict_backend_runs_uncertified_operators_serially(store):
    reference = Engine(store, EngineOptions(num_threads=4))
    ref_op = UncertifiableOp(np.zeros(reference.num_vertices))
    reference.edge_map(Frontier.full(reference.num_vertices), ref_op)

    engine = Engine(
        store,
        EngineOptions(num_threads=4, backend="process:workers=2:strict=0"),
    )
    try:
        op = UncertifiableOp(np.zeros(engine.num_vertices))
        engine.edge_map(Frontier.full(engine.num_vertices), op)
        np.testing.assert_array_equal(ref_op.hits, op.hits)
        # ran on the serial path: nothing was dispatched to workers
        assert engine.backend_stats.partitions_dispatched == 0
        assert any("serial path" in line for line in engine.resilience_log)
    finally:
        engine.close()


def test_nonstrict_backend_still_parallelises_certified_operators(store):
    serial = _results(Engine(store, EngineOptions(num_threads=4)), "PR")
    engine = Engine(
        store,
        EngineOptions(num_threads=4, backend="process:workers=2:strict=0"),
    )
    try:
        _assert_identical(serial, _results(engine, "PR"), "PR/strict=0")
        assert engine.backend_stats.partitions_dispatched > 0
    finally:
        engine.close()


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_pool_is_lazy_and_close_is_idempotent(store):
    engine = Engine(
        store, EngineOptions(num_threads=4, backend="process:workers=2")
    )
    # no concurrent phase yet: no pool, no shm
    assert engine._backend_obj is None
    pagerank(engine, iterations=1)
    backend = engine._backend_obj
    assert isinstance(backend, ProcessBackend)
    assert backend.worker_pids()
    engine.close()
    assert backend.worker_pids() == []
    engine.close()  # idempotent


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs this process may run on",
)
def test_each_worker_gets_a_cpu_of_its_own_when_there_are_enough(store):
    allowed = os.sched_getaffinity(0)
    with Engine(
        store, EngineOptions(num_threads=4, backend="process:workers=2")
    ) as engine:
        pagerank(engine, iterations=1)
        homes = [os.sched_getaffinity(pid) for pid in engine._backend_obj.worker_pids()]
        assert [len(home) for home in homes] == [1, 1]
        assert homes[0] != homes[1] and homes[0] | homes[1] <= allowed
        # the parent itself is left to the scheduler
        assert os.sched_getaffinity(0) == allowed
    crowded = len(allowed) + 1
    with Engine(
        store, EngineOptions(num_threads=4, backend=f"process:workers={crowded}")
    ) as engine:
        pagerank(engine, iterations=1)
        pids = engine._backend_obj.worker_pids()
        assert len(pids) == crowded
        assert all(os.sched_getaffinity(pid) == allowed for pid in pids)


@pytest.mark.parametrize("broken", [False, True])
def test_a_closed_pool_has_reaped_its_workers_when_close_returns(store, broken):
    """No join by the caller: ``close`` itself waits for the workers, on a
    healthy pool and on one whose workers were killed under it."""
    engine = Engine(store, EngineOptions(num_threads=4, backend="process:workers=2"))
    pagerank(engine, iterations=1)
    workers = list(engine._backend_obj._executor._processes.values())
    assert len(workers) == 2
    if broken:
        for worker in workers:
            os.kill(worker.pid, signal.SIGKILL)
        pagerank(engine, iterations=1)
        assert engine.backend_stats.fallbacks == 1
    engine.close()
    assert [worker.exitcode is not None for worker in workers] == [True, True]


def test_context_manager_closes_the_pool(store):
    with Engine(
        store, EngineOptions(num_threads=4, backend="process:workers=2")
    ) as engine:
        pagerank(engine, iterations=1)
        backend = engine._backend_obj
        assert backend.worker_pids()
    assert backend.worker_pids() == []


# ----------------------------------------------------------------------
# persistent operator-state segments
# ----------------------------------------------------------------------
def test_persistent_state_cuts_republished_bytes_at_least_5x(store):
    """20-iteration PageRank republishes >=5x less than the old
    republish-every-phase model (= ``shm_bytes_requested``), because the
    adopted operator arrays are mutated in place inside their segments."""
    serial = pagerank(Engine(store, EngineOptions(num_threads=4)), iterations=20)
    engine = Engine(
        store, EngineOptions(num_threads=4, backend="process:workers=2")
    )
    try:
        result = pagerank(engine, iterations=20)
        stats = engine.backend_stats
        assert stats.fallbacks == 0
        assert stats.segments_reused > 0
        assert stats.shm_bytes_requested > 0
        assert stats.shm_bytes_requested >= 5 * stats.shm_bytes_republished, (
            f"republished {stats.shm_bytes_republished} B vs "
            f"{stats.shm_bytes_requested} B requested: persistent segments "
            f"should republish at least 5x less than republish-every-phase"
        )
        np.testing.assert_array_equal(serial.ranks, result.ranks)
    finally:
        engine.close()


def test_adopted_operator_arrays_live_in_shared_segments(store):
    """An op with ``persistent_state`` has its arrays replaced by segment
    views at the first dispatch; publishing them again is an identity
    check, and a fresh op of the same class reuses the same segments."""
    from repro.algorithms.pagerank import PageRankOp

    engine = Engine(
        store, EngineOptions(num_threads=4, backend="process:workers=2")
    )
    try:
        n = engine.num_vertices
        everything = Frontier.full(n)
        op = PageRankOp(np.full(n, 1.0 / n), np.zeros(n))
        engine.edge_map(everything, op)
        backend = engine._backend_obj
        assert isinstance(backend, ProcessBackend)
        scope = f"{PageRankOp.__module__}:{PageRankOp.__qualname__}"
        contrib = backend._state_segments[scope, "contrib"]
        accum = backend._state_segments[scope, "accum"]
        assert op.contrib is contrib.view and op.accum is accum.view
        stats = engine.backend_stats
        republished, reused = stats.shm_bytes_republished, stats.segments_reused
        engine.edge_map(everything, op)
        assert stats.shm_bytes_republished == republished  # adopted: no bytes move
        assert stats.segments_reused > reused
        # a second op brings arrays of its own: their contents are copied
        # into the same segments, which it then adopts in turn
        other = PageRankOp(np.full(n, 2.0 / n), np.zeros(n))
        engine.edge_map(everything, other)
        assert backend._state_segments[scope, "contrib"] is contrib
        assert other.contrib is contrib.view
        assert stats.shm_bytes_republished == republished + contrib.nbytes + accum.nbytes
    finally:
        engine.close()


def test_fallback_unadopts_segment_views(store):
    """After a backend fallback closes the pool (releasing every shm
    segment), the serial re-run and later iterations must not touch the
    now-unmapped views — the dispatcher un-adopts on the way out."""
    serial = pagerank(Engine(store, EngineOptions(num_threads=4)), iterations=10)
    engine = Engine(
        store, EngineOptions(num_threads=4, backend="process:workers=2")
    )
    try:
        pagerank(engine, iterations=2)  # adopt the op arrays
        backend = engine._backend_obj
        for pid in backend.worker_pids():
            os.kill(pid, signal.SIGKILL)
        result = pagerank(engine, iterations=10)
        assert engine.backend_stats.fallbacks >= 1
        np.testing.assert_array_equal(serial.ranks, result.ranks)
    finally:
        engine.close()
