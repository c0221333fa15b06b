"""The threads backend: bit-identity, admission, lifecycle.

For every registered algorithm, running the partitioned kernels in blocks
on a thread pool, writing the live arrays in place, produces
*bit-identical* results to the serial reference path (points of the
lattice, :mod:`tests.lattice`); operators that are not edge-local stay
in-process, ones that declare no writes are refused (strict) or
serialised; and a
closed engine leaves no thread.  (The name is the backend's old one,
``process``.)
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.algorithms import registry
from repro.algorithms.pagerank import PageRankOp, pagerank
from repro.core import Engine, EngineOptions, ThreadBackend
from repro.core.ops import EdgeOperator
from repro.errors import ValidationError
from repro.frontier.frontier import Frontier
from repro.layout.store import GraphStore
from tests.lattice import GRAPHS, Config, check, oracle

#: the algorithms whose every operator is edge-local, so runs on the pool.
THREADED = {"BP", "PR", "PRDelta", "SPMV"}


@pytest.fixture(scope="module")
def store():
    return GraphStore.build(GRAPHS["tiny_rmat"](), num_partitions=8)


def _new_threads(before: set) -> set:
    """Live threads that were not running at ``before`` (the residue rule:
    a closed engine leaves ``threading.active_count()`` where it was)."""
    return set(threading.enumerate()) - before


# ----------------------------------------------------------------------
# bit-identity across the whole registry: points of the lattice, and who
# the pool ran
# ----------------------------------------------------------------------
def _pooled(backend="threads:workers=2", **axes):
    return Config(axes.pop("code", "PR"), "tiny_rmat", 8, backend=backend, **axes)


@pytest.mark.parametrize("code", sorted(registry.names()))
def test_every_algorithm_is_bit_identical_under_the_process_backend(code):
    stats = check(_pooled(code=code), twin=_pooled(code=code, backend="serial")).backend
    assert (stats.partitions_dispatched > 0) == (code in THREADED)
    assert stats.workers_spawned == (2 if code in THREADED else 0)


@pytest.mark.parametrize("order", ["reverse", "shuffle"])
def test_partition_order_does_not_change_the_result(order):
    check(_pooled(partition_order=order))


def test_single_worker_pool_matches_serial():
    assert check(_pooled("threads:workers=1")).backend.partitions_dispatched > 0


def test_sparse_phase_runs_in_process_and_dispatches_nothing(store):
    n = store.num_vertices
    few = np.flatnonzero(store.out_degrees == 1)[:4]
    op = PageRankOp(np.ones(n), np.zeros(n))
    with Engine(store, EngineOptions(num_threads=4, backend="threads:workers=2")) as engine:
        engine.edge_map(Frontier.full(n), op)  # a dense phase does use the pool
        batches = engine.backend_stats.batches_dispatched
        assert batches == 1
        engine.edge_map(Frontier(n, sparse=few), op)
        assert engine.stats.edge_maps[-1].layout == "csr"
        assert engine.backend_stats.batches_dispatched == batches


def test_blocks_write_the_operators_own_arrays_in_place(store):
    n = store.num_vertices
    contrib, accum = np.linspace(1.0, 2.0, n), np.zeros(n)
    want = np.zeros(n)
    with Engine(store, EngineOptions(num_threads=4)) as engine:
        engine.edge_map(Frontier.full(n), PageRankOp(contrib, want))
    op = PageRankOp(contrib, accum)
    with Engine(store, EngineOptions(num_threads=4, backend="threads:workers=2")) as engine:
        engine.edge_map(Frontier.full(n), op)
        assert engine.backend_stats.batches_dispatched == 1
    assert op.accum is accum and op.contrib is contrib
    assert accum.tobytes() == want.tobytes()


def test_stats_snapshot_is_attached_to_run_stats(store):
    engine = Engine(
        store, EngineOptions(num_threads=4, backend="threads:workers=2")
    )
    try:
        result = pagerank(engine, iterations=3)
        assert result.stats.backend is not None
        assert result.stats.backend.kind == "threads"
        assert result.stats.backend.partitions_dispatched > 0
        # the snapshot is detached: further runs must not mutate it
        frozen = result.stats.backend.partitions_dispatched
        pagerank(engine, iterations=2)
        assert result.stats.backend.partitions_dispatched == frozen
    finally:
        engine.close()


# ----------------------------------------------------------------------
# a pool that cannot start a thread: the batch runs in-process
# ----------------------------------------------------------------------
def test_a_pool_that_cannot_start_falls_back_to_serial(store, monkeypatch):
    def submit(self, fn, *args):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
    with Engine(store, EngineOptions(num_threads=4, backend="threads:workers=2")) as engine:
        ranks = pagerank(engine, iterations=10).ranks
        assert engine.backend_stats.fallbacks == 1
        assert engine.backend_stats.kind == "serial"
        assert engine.backend_stats.batches_dispatched == 0
        assert any("falling back to serial" in line for line in engine.resilience_log)
    assert ranks.tobytes() == oracle("tiny_rmat", "PR")["ranks"].tobytes()


# ----------------------------------------------------------------------
# admission: strict refuses, strict=0 serialises
# ----------------------------------------------------------------------
class UncertifiableOp(EdgeOperator):
    """Writes through source ids, so it cannot declare ``writes`` (each
    array written only at ``dst``): it declares nothing."""

    def __init__(self, hits):
        self.hits = hits

    def process_edges(self, src, dst):
        np.add.at(self.hits, src, 1)
        return dst


def test_strict_backend_refuses_uncertified_operators(store):
    engine = Engine(
        store, EngineOptions(num_threads=4, backend="threads:workers=2")
    )
    try:
        op = UncertifiableOp(np.zeros(engine.num_vertices))
        with pytest.raises(ValidationError, match="UncertifiableOp declares no `writes`"):
            engine.edge_map(Frontier.full(engine.num_vertices), op)
    finally:
        engine.close()


def test_nonstrict_backend_runs_uncertified_operators_serially(store):
    reference = Engine(store, EngineOptions(num_threads=4))
    ref_op = UncertifiableOp(np.zeros(reference.num_vertices))
    reference.edge_map(Frontier.full(reference.num_vertices), ref_op)

    engine = Engine(
        store,
        EngineOptions(num_threads=4, backend="threads:workers=2:strict=0"),
    )
    try:
        op = UncertifiableOp(np.zeros(engine.num_vertices))
        engine.edge_map(Frontier.full(engine.num_vertices), op)
        np.testing.assert_array_equal(ref_op.hits, op.hits)
        # ran on the serial path: nothing was dispatched to the pool
        assert engine.backend_stats.partitions_dispatched == 0
        assert any("serial path" in line for line in engine.resilience_log)
    finally:
        engine.close()


def test_nonstrict_backend_still_parallelises_certified_operators():
    assert check(_pooled("threads:workers=2:strict=0")).backend.partitions_dispatched > 0


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_pool_is_lazy_and_close_is_idempotent(store):
    threads = set(threading.enumerate())
    engine = Engine(
        store, EngineOptions(num_threads=4, backend="threads:workers=2")
    )
    # no concurrent phase yet: no pool, no thread
    assert engine._backend_obj is None
    pagerank(engine, iterations=1)
    assert isinstance(engine._backend_obj, ThreadBackend)
    assert _new_threads(threads)
    engine.close()
    assert not _new_threads(threads)
    engine.close()  # idempotent


class _Boom(Exception):
    pass


@pytest.mark.parametrize("broken", [False, True])
def test_a_closed_pool_has_reaped_its_workers_when_close_returns(store, broken, monkeypatch):
    """No join by the caller: ``close`` itself joins the pool's threads, on
    a healthy pool and on one whose last batch raised inside a block."""
    threads = set(threading.enumerate())
    engine = Engine(store, EngineOptions(num_threads=4, backend="threads:workers=2"))
    pagerank(engine, iterations=1)
    assert len(_new_threads(threads)) == 2
    if broken:
        def process_edges(self, src, dst):
            raise _Boom

        monkeypatch.setattr(PageRankOp, "process_edges", process_edges)
        with pytest.raises(_Boom):
            pagerank(engine, iterations=1)
    engine.close()
    assert not _new_threads(threads)


def test_context_manager_closes_the_pool(store):
    threads = set(threading.enumerate())
    with Engine(
        store, EngineOptions(num_threads=4, backend="threads:workers=2")
    ) as engine:
        pagerank(engine, iterations=1)
        assert _new_threads(threads)
    assert not _new_threads(threads)
