"""Property: the threads backend is bit-identical to serial, always.

Every algorithm's result arrays match the oracle on the pool (points of
the lattice, :mod:`tests.lattice`, whose sampled properties cover the
rest of the space) — the paper's partitioned execution model says any
schedule of the disjoint partition slices commits the same state.
Blocks of tasks write the live arrays in place, and only operators
certified edge-local are run on the pool (no task reads what another
writes), so for PR, PRDelta, SPMV and BP every ``EdgeMapStats`` field
and guard count matches serial too.

An exception inside a block surfaces as serial execution raises it —
the earliest failing block's — and only once no block is still running,
so a supervised phase rolls back over arrays nothing is writing.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.algorithms import registry
from repro.algorithms.pagerank import PageRankOp, pagerank
from repro.core import Engine, EngineOptions, plan
from repro.errors import WorkerFailure
from repro.graph import generators as gen
from repro.layout.store import GraphStore
from repro.resilience import ResiliencePolicy
from tests.lattice import GRAPHS, Config, check

#: the algorithms whose every operator is edge-local, so runs on the pool.
THREADED = ["BP", "PR", "PRDelta", "SPMV"]


def test_process_backend_is_bit_identical_to_serial():
    """One point; the lattice's properties draw the backend on every axis."""
    check(Config("BC", "tiny_rmat", backend="threads:workers=4", partition_order="shuffle"))


def test_threads_match_serial_in_results_and_every_statistic():
    """An edge-local algorithm's results, every ``EdgeMapStats`` field and
    the guard counts (one point; the lattice's twins draw the rest)."""
    serial = Config("PRDelta", "rmat:2", 7, partition_order="reverse", grain=200)
    check(serial, twin=dataclasses.replace(serial, backend="threads:workers=2"))


def test_the_edge_local_algorithms_do_use_the_pool():
    for code in THREADED:
        store = GraphStore.build(GRAPHS["tiny_rmat"](), num_partitions=8)
        with Engine(store, EngineOptions(num_threads=4, backend="threads:workers=2")) as engine:
            registry.get(code).run(engine)
            assert engine.backend_stats.batches_dispatched > 0, code


# ----------------------------------------------------------------------
# an exception inside a block
# ----------------------------------------------------------------------
class _Tripped(Exception):
    pass


def _tripwire(patch, lo: int, hi: int, raises):
    """Make ``PageRankOp.process_edges`` raise ``raises(message)`` for a
    batch whose last ``dst`` lies in ``[lo, hi)`` (every such batch, or
    with a ``WorkerFailure`` only the first) and sleep a little in every
    other batch, so that which block fails first is set by the window.
    Returns the batches begun and ended so far, and each raise's message."""
    real = PageRankOp.process_edges
    lock, batches, raised = threading.Lock(), [0, 0], []

    def process_edges(self, src, dst):
        with lock:
            batches[0] += 1
            fire = dst.size and lo <= int(dst[-1]) < hi
            fire = fire and not (raised and raises is WorkerFailure)
            if fire:
                raised.append(f"batch ending at vertex {int(dst[-1])}")
        try:
            if fire:
                raise raises(raised[-1])
            time.sleep(0.002)
            return real(self, src, dst)
        finally:
            with lock:
                batches[1] += 1

    patch.setattr(PageRankOp, "process_edges", process_edges)
    return batches, raised


#: tripping partitions ``[first, last)``, on 16 partitions in two blocks of
#: eight runs of one: from partition 4 on, the second block fails at once
#: while the first is asleep, and its error must not win; partition 0 alone,
#: the first block fails at once while the second is still writing.
WINDOWS = {"later_block_fails_first": (4, 16), "earlier_block_fails_first": (0, 1)}


@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_a_raising_operator_surfaces_the_serial_exception_with_no_thread_running(window):
    store = GraphStore.build(gen.rmat(8, 8.0, seed=4), num_partitions=16)
    cuts = store.coo.partition.boundaries
    first, last = WINDOWS[window]
    errors = {}
    for backend in ("serial", "threads:workers=2"):
        with pytest.MonkeyPatch.context() as patch, Engine(
            store, EngineOptions(num_threads=2, backend=backend)
        ) as engine:
            patch.setattr(plan, "TASK_EDGES", 0)  # the same batches on both paths
            batches, raised = _tripwire(patch, int(cuts[first]), int(cuts[last]), _Tripped)
            with pytest.raises(_Tripped) as err:
                pagerank(engine, iterations=2)
            seen = list(batches)
            time.sleep(0.05)
            assert batches == seen and seen[0] == seen[1]  # none running, none to come
            errors[backend] = str(err.value)
            if backend != "serial" and first:
                assert len(raised) > 1  # both blocks failed; the earlier one's error wins
            assert engine.backend_stats.batches_dispatched == 0
    assert errors["threads:workers=2"] == errors["serial"]


def test_a_fault_inside_a_block_rolls_the_phase_back_bit_identically():
    """Partition 0 fails at once; the second block is still writing when it
    does, and the phase rolls back only after it has finished."""
    store = GraphStore.build(gen.rmat(8, 8.0, seed=4), num_partitions=16)
    with Engine(store, EngineOptions(num_threads=2, backend="serial")) as engine:
        want = pagerank(engine, iterations=4)
    policy = ResiliencePolicy(max_retries=1)
    options = EngineOptions(num_threads=2, backend="threads:workers=2")
    with pytest.MonkeyPatch.context() as patch, Engine(
        store, options, resilience=policy
    ) as engine:
        cuts = store.coo.partition.boundaries
        _, raised = _tripwire(patch, int(cuts[0]), int(cuts[1]), WorkerFailure)
        got = pagerank(engine, iterations=4)
        assert len(raised) == 1 and engine.backend_stats.fallbacks == 0
        assert any("attempt 0 faulted" in line for line in engine.resilience_log)
        assert engine.backend_stats.batches_dispatched == 4
    assert np.array_equal(got.ranks, want.ranks)
