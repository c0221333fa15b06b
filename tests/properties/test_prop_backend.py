"""Property: the threads backend is bit-identical to serial, always.

Samples (algorithm, worker count, partition order) and asserts every
result array matches the serial reference exactly — the paper's
partitioned execution model says any schedule of the disjoint partition
slices commits the same state.  Blocks of tasks write the live arrays in
place, and only operators certified edge-local are run on the pool (no
task reads what another writes), so for PR, PRDelta, SPMV and BP every
``EdgeMapStats`` field and guard count matches too, over partition count,
partition order and task grain.

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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import registry
from repro.algorithms.pagerank import PageRankOp, pagerank
from repro.analysis.sanitizer import default_graph
from repro.core import Engine, EngineOptions, plan
from repro.errors import WorkerFailure
from repro.graph import generators as gen
from repro.layout.store import GraphStore
from repro.resilience import ResiliencePolicy

_STORE = GraphStore.build(default_graph(), num_partitions=8)
_SERIAL: dict[str, dict[str, np.ndarray]] = {}
_ENGINES: dict[tuple[int, str], Engine] = {}
#: the algorithms whose every operator is edge-local, so runs on the pool.
THREADED = ["BP", "PR", "PRDelta", "SPMV"]
#: a few partitions per run on the graphs below.
TINY = 200


def _serial_results(code: str) -> dict[str, np.ndarray]:
    if code not in _SERIAL:
        spec = registry.get(code)
        engine = Engine(_STORE, EngineOptions(num_threads=4))
        _SERIAL[code] = registry.result_arrays(spec.run(engine))
    return _SERIAL[code]


def _pool_engine(workers: int, order: str) -> Engine:
    key = (workers, order)
    if key not in _ENGINES:
        _ENGINES[key] = Engine(
            _STORE,
            EngineOptions(
                num_threads=4,
                backend=f"threads:workers={workers}",
                partition_order=order,
            ),
        )
    return _ENGINES[key]


@pytest.fixture(scope="module", autouse=True)
def _close_pools():
    yield
    for engine in _ENGINES.values():
        engine.close()
    _ENGINES.clear()


@settings(max_examples=25, deadline=None)
@given(
    code=st.sampled_from(sorted(registry.names())),
    workers=st.sampled_from([1, 2, 4]),
    order=st.sampled_from(["forward", "reverse", "shuffle"]),
)
def test_process_backend_is_bit_identical_to_serial(code, workers, order):
    engine = _pool_engine(workers, order)
    fallbacks_before = engine.backend_stats.fallbacks
    spec = registry.get(code)
    concurrent = registry.result_arrays(spec.run(engine))
    serial = _serial_results(code)
    assert serial.keys() == concurrent.keys()
    for key in serial:
        np.testing.assert_array_equal(
            serial[key], concurrent[key],
            err_msg=f"{code} (workers={workers}, order={order}): "
                    f"field {key!r} diverged from serial",
        )
    assert engine.backend_stats.fallbacks == fallbacks_before


# ----------------------------------------------------------------------
# results, every statistic and the guard counts
# ----------------------------------------------------------------------
def _stats_rows(result) -> list[tuple]:
    """Every field of every ``EdgeMapStats`` the run recorded."""
    return [
        tuple(
            value.tolist() if isinstance(value, np.ndarray) else value
            for value in dataclasses.astuple(m)
        )
        for m in result.stats.edge_maps
    ]


def _observe(store, code: str, options: EngineOptions, target: int):
    """Everything a caller can see of one run at edge target ``target``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plan, "TASK_EDGES", target)
        with Engine(store, options) as engine:
            result = registry.get(code).run(engine)
            guards = (engine.guards_skipped, engine.guard_invocations)
            assert engine.backend_stats.fallbacks == 0
    arrays = {name: a.tobytes() for name, a in registry.result_arrays(result).items()}
    return arrays, _stats_rows(result), guards


@settings(max_examples=30, deadline=None)
@given(
    code=st.sampled_from(THREADED),
    seed=st.integers(0, 3),
    p=st.integers(1, 24),
    order=st.sampled_from(["forward", "reverse", "shuffle"]),
    target=st.sampled_from([0, TINY, plan.TASK_EDGES]),
    workers=st.sampled_from([1, 2, 3]),
)
def test_threads_match_serial_in_results_and_every_statistic(
    code, seed, p, order, target, workers
):
    store = GraphStore.build(gen.rmat(7, 8.0, seed=seed), num_partitions=p)
    options = EngineOptions(num_threads=2, backend="serial", partition_order=order)
    want = _observe(store, code, options, target)
    threaded = dataclasses.replace(options, backend=f"threads:workers={workers}")
    assert _observe(store, code, threaded, target) == want


def test_the_edge_local_algorithms_do_use_the_pool():
    for code in THREADED:
        with Engine(_STORE, EngineOptions(num_threads=4, backend="threads:workers=2")) as engine:
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
