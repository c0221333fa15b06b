"""Acceptance matrix of the out-of-core grid spill tentpole.

A supervised run whose three-copy layout exceeds the memory budget must
degrade to streamed grid execution and finish bit-identical to the
in-RAM run — for BFS, PageRank and connected components — with the
governor's resident high-water mark never exceeding the budget.  The
same holds under every disk fault kind (transient I/O errors, slow
reads escalated by the watchdog, torn blocks healed on read, a full
disk during preprocessing), under a worker crash mid-stream (only the
in-flight block re-executes), and across a kill-and-resume.
"""

import threading

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.pagerank import pagerank
from repro.core import Engine, EngineOptions
from repro.core import engine as engine_module
from repro.errors import RetryExhausted
from repro.layout import GraphStore
from repro.layout.grid import GridStore
from repro.resilience import (
    CheckpointManager,
    CheckpointSession,
    FaultPlan,
    ResiliencePolicy,
    Watchdog,
    make_store,
)

pytestmark = pytest.mark.faultinjection

#: small enough that the rmat(8) three-copy layout (~22 KiB) overflows
#: it, forcing the spill rung; large enough to hold a few grid blocks.
BUDGET = "8K"


def _engine(edges, *, policy=None, threads=4, backend=None):
    store = GraphStore.build(edges, num_partitions=8)
    options = EngineOptions(num_threads=threads, backend=backend)
    return Engine(store, options, resilience=policy)


def _spill_policy(spec=None, *, retries=4, watchdog=None):
    plan = FaultPlan.from_spec(spec) if spec else None
    return ResiliencePolicy(
        max_retries=retries,
        fault_plan=plan,
        watchdog=watchdog,
        memory_budget=BUDGET,
    )


ALGOS = {
    "BFS": lambda eng, ck=None: bfs(eng, 0, checkpoint=ck),
    "PR": lambda eng, ck=None: pagerank(eng, iterations=6, checkpoint=ck),
    "CC": lambda eng, ck=None: connected_components(eng, checkpoint=ck),
}


def _payload(result):
    return {
        name: value
        for name, value in vars(result).items()
        if isinstance(value, np.ndarray)
    }


def _graph_for(code, small_rmat, small_symmetric):
    return small_symmetric if code == "CC" else small_rmat


def _assert_identical(baseline, spilled):
    payload = _payload(baseline)
    assert payload
    for name, value in payload.items():
        assert np.array_equal(getattr(spilled, name), value), name


# ----------------------------------------------------------------------
# the core claim: oversubscribed runs spill and stay bit-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", list(ALGOS))
def test_oversubscribed_run_spills_bit_identical(
    small_rmat, small_symmetric, code
):
    graph = _graph_for(code, small_rmat, small_symmetric)
    run = ALGOS[code]
    baseline = run(_engine(graph))

    engine = _engine(graph, policy=_spill_policy())
    spilled = run(engine)

    _assert_identical(baseline, spilled)
    assert engine.grid is not None, "the run never degraded to the grid"
    assert any("out-of-core grid" in line for line in engine.resilience_log)
    budget = engine.grid.budget
    assert budget.limit_bytes == 8 << 10
    assert 0 < budget.high_water_bytes <= budget.limit_bytes
    assert engine.grid.stats.block_reads > 0


def test_selective_scheduling_skips_inactive_blocks(small_rmat):
    engine = _engine(small_rmat, policy=_spill_policy())
    bfs(engine, 0)
    # Sparse early frontiers leave whole source stripes inactive.
    assert engine.grid.stats.blocks_skipped > 0


def test_spill_requires_opt_in(small_rmat):
    # Without a budget or spill dir the ladder never reaches the grid:
    # pre-existing halving behaviour is preserved.
    policy = ResiliencePolicy(max_retries=4)
    engine = _engine(small_rmat, policy=policy)
    bfs(engine, 0)
    assert engine.grid is None


def test_explicit_stripes_override(small_rmat):
    policy = ResiliencePolicy(memory_budget=BUDGET, grid_stripes=5)
    engine = _engine(small_rmat, policy=policy)
    bfs(engine, 0)
    assert engine.grid.num_stripes == 5


def test_halving_bottoms_out_then_spills(small_rmat):
    # A budget the layout fits under never trips the proactive check;
    # injected OOMs (no byte accounting) walk the halving ladder to the
    # p=1 floor first, and only then does the opted-in policy spill.
    policy = ResiliencePolicy(
        max_retries=8,
        fault_plan=FaultPlan.from_spec("oom@0,oom@0,oom@0,oom@0"),
        memory_budget="1G",
    )
    engine = _engine(small_rmat, policy=policy)
    baseline = pagerank(_engine(small_rmat), iterations=2)
    spilled = pagerank(engine, iterations=2)
    assert engine.store.num_partitions == 1  # 8 -> 4 -> 2 -> 1
    assert engine.grid is not None  # the rung below the floor
    assert np.array_equal(spilled.ranks, baseline.ranks)


def test_spill_dir_is_used_and_persists(tmp_path, small_rmat):
    policy = ResiliencePolicy(memory_budget=BUDGET, spill_dir=str(tmp_path))
    engine = _engine(small_rmat, policy=policy)
    bfs(engine, 0)
    assert (tmp_path / "grid.mf").exists()


# ----------------------------------------------------------------------
# the disk fault matrix, each bit-identical to the fault-free baseline
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec, stat, value",
    [
        ("io_error@1", "io_retries", 1),
        ("torn_block@0", "repairs", 1),
        ("disk_full@0", "write_retries", 1),
    ],
)
def test_disk_faults_recovered_bit_identical(small_rmat, spec, stat, value):
    baseline = bfs(_engine(small_rmat), 0)
    engine = _engine(small_rmat, policy=_spill_policy(spec))
    spilled = bfs(engine, 0)
    _assert_identical(baseline, spilled)
    assert getattr(engine.grid.stats, stat) == value


def test_slow_read_escalates_through_watchdog(small_rmat):
    baseline = bfs(_engine(small_rmat), 0)
    engine = _engine(
        small_rmat, policy=_spill_policy("slow_io@2", watchdog=Watchdog())
    )
    spilled = bfs(engine, 0)
    _assert_identical(baseline, spilled)
    assert engine.grid.stats.slow_reads == 1
    # The stalled block re-executed (served from cache on the retry).
    assert engine.journal.reexecutions == 1


def test_worker_crash_mid_stream_reexecutes_one_block(small_rmat):
    baseline = pagerank(_engine(small_rmat), iterations=6)
    engine = _engine(small_rmat, policy=_spill_policy("worker_crash@1:1"))
    spilled = pagerank(engine, iterations=6)
    assert np.array_equal(spilled.ranks, baseline.ranks)
    # Block-granular recovery: exactly one unit of work re-ran, the
    # already-committed blocks of the stripe replayed from the journal.
    assert engine.journal.reexecutions == 1
    assert engine.journal.replays > 0


def test_compound_fault_plan_survives(small_rmat):
    baseline = pagerank(_engine(small_rmat), iterations=6)
    engine = _engine(
        small_rmat,
        policy=_spill_policy("torn_block@1,io_error@3,worker_crash@2:0",
                             retries=6),
    )
    spilled = pagerank(engine, iterations=6)
    assert np.array_equal(spilled.ranks, baseline.ranks)
    stats = engine.grid.stats
    assert stats.repairs == 1 and stats.io_retries == 1
    assert engine.grid.budget.high_water_bytes <= engine.grid.budget.limit_bytes


# ----------------------------------------------------------------------
# kill-and-resume: a hard kill mid-spill resumes bit-identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", list(ALGOS))
def test_killed_spilled_run_resumes_bit_identical(
    tmp_path, small_rmat, small_symmetric, code
):
    graph = _graph_for(code, small_rmat, small_symmetric)
    run = ALGOS[code]
    baseline = run(_engine(graph))

    def _session(resume):
        mgr = CheckpointManager(store=make_store("local", tmp_path / "ck"))
        return CheckpointSession(mgr, f"{code}-killed", resume=resume)

    # retries=0 turns the injected crash into a hard kill mid-stream.
    kill = ResiliencePolicy(
        max_retries=0,
        fault_plan=FaultPlan.from_spec("worker_crash@2:1"),
        memory_budget=BUDGET,
    )
    with pytest.raises(RetryExhausted):
        run(_engine(graph, policy=kill), _session(resume=False))

    resumed = run(
        _engine(graph, policy=_spill_policy()), _session(resume=True)
    )
    _assert_identical(baseline, resumed)


# ----------------------------------------------------------------------
# a full-frontier phase folds nothing, replayed blocks included
# ----------------------------------------------------------------------
#: the ``EdgeMapStats`` fields that do not describe the layout streamed.
_LAYOUT_FREE = (
    "density", "frontier_size", "active_edges", "examined_edges",
    "scanned_vertices", "updated_vertices",
)


def _rows(result):
    return [
        {
            name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in vars(stats).items()
        }
        for stats in result.stats.edge_maps
    ]


def _bitmap_always(frontier):
    """The engine's frontier filter as it was before full-frontier phases
    went without a bitmap: every grid phase then folds its records."""
    return {"bitmap": frontier.as_bitmap()}


def test_worker_crash_mid_phase_replays_and_still_folds_nothing(monkeypatch, small_rmat):
    """A crash in the middle of a spilled PageRank phase: the stripe that
    committed replays from the journal, the rest re-execute, and the fold
    still looks the next frontier up — a replayed record keeps its
    ``all_dst`` flag, and the grid's cached counts are its ``touched``.
    Nothing a caller sees moves: the ranks and the layout-free statistics
    equal the in-RAM engine's, and every ``EdgeMapStats`` field and every
    grid counter equal those of the same crash down the path that folds
    (and counts in the kernel) as before.  Against the fault-free spilled
    run only the faulted phase's ``io_bytes``/``io_blocks`` differ: they
    count the retry's reads, and the replayed blocks were not read."""
    looked_up = []
    fold = Engine._fold

    def spy(engine, plan, frontier, density, records):
        nxt = fold(engine, plan, frontier, density, records)
        flagged = bool(records) and all(rec.all_dst for rec in records)
        looked_up.append(flagged and nxt is engine._per_store.get("in-edge-frontier"))
        return nxt

    monkeypatch.setattr(Engine, "_fold", spy)
    baseline = pagerank(_engine(small_rmat), iterations=6)

    def spilled(spec, masked=False):
        looked_up.clear()
        with pytest.MonkeyPatch.context() as patch:
            if masked:
                patch.setattr(engine_module, "_frontier_filter", _bitmap_always)
            engine = _engine(small_rmat, policy=_spill_policy(spec), backend="serial")
            result = pagerank(engine, iterations=6)
        assert engine.grid is not None and looked_up == [not masked] * 6
        assert np.array_equal(result.ranks, baseline.ranks)
        for got, want in zip(_rows(result), _rows(baseline), strict=True):
            assert got["layout"] == "grid"
            assert {k: got[k] for k in _LAYOUT_FREE} == {k: want[k] for k in _LAYOUT_FREE}
        counters = {**vars(engine.grid.stats), "evictions": engine.grid.budget.evictions}
        engine.close()
        return _rows(result), counters, engine.journal

    crashed, counters, journal = spilled("worker_crash@2:1")
    assert journal.reexecutions == 1 and journal.replays > 0
    assert spilled("worker_crash@2:1", masked=True)[:2] == (crashed, counters)
    clean = spilled(None)[0]
    assert crashed[2]["io_blocks"] < clean[2]["io_blocks"]
    for row in (clean[2], crashed[2]):
        del row["io_bytes"], row["io_blocks"]
    assert crashed == clean


# ----------------------------------------------------------------------
# the ``serial:prefetch=N`` shim: parsed, and nothing else
# ----------------------------------------------------------------------
#: the spec the benchmark's spill row still names.  Grid blocks are read
#: in the engine's thread whatever it says.
SHIM = "serial:prefetch=2"


def _spilled(graph, run, backend, spec=None, **policy):
    """``run`` supervised under ``backend``, spilled: its result, its
    (closed) engine, and every count a caller could compare."""
    engine = _engine(graph, policy=_spill_policy(spec, **policy), backend=backend)
    result = run(engine)
    engine.close()
    grid, journal = engine.grid, engine.journal
    assert grid is not None, "the run never degraded to the grid"
    return result, engine, {
        "edge_maps": _rows(result),
        "grid": vars(grid.stats),
        "budget": (grid.budget.evictions, grid.budget.high_water_bytes),
        "journal": (journal.replays, journal.reexecutions),
    }


def _shim_matches_serial(graph, run, spec=None, **policy):
    """The same spilled run under :data:`SHIM` and under ``serial``: equal
    result arrays, ``EdgeMapStats``, grid counters, budget and journal
    counts.  Returns the shim run's result and engine."""
    want, _, expected = _spilled(graph, run, "serial", spec, **policy)
    got, engine, seen = _spilled(graph, run, SHIM, spec, **policy)
    _assert_identical(want, got)
    assert seen == expected
    return got, engine


@pytest.mark.parametrize("code", list(ALGOS))
def test_the_prefetch_shim_starts_no_thread_and_changes_nothing(
    monkeypatch, small_rmat, small_symmetric, code
):
    """A supervised spill under :data:`SHIM`, through a torn block, an I/O
    error and a worker crash: every block is read in the engine's thread,
    and nothing differs from the same run under ``serial``."""
    graph = _graph_for(code, small_rmat, small_symmetric)
    plan = "torn_block@0,io_error@1,worker_crash@2:0"
    read_block, inside = GridStore.read_block, []

    def spy(grid, i, j):
        inside.append(frozenset(threading.enumerate()))
        return read_block(grid, i, j)

    monkeypatch.setattr(GridStore, "read_block", spy)
    engine = _engine(graph, policy=_spill_policy(plan), backend=SHIM)
    constructed = frozenset(threading.enumerate())
    ALGOS[code](engine)
    engine.close()
    assert inside and set(inside) == {constructed}
    assert frozenset(threading.enumerate()) == constructed
    assert engine.grid.stats.repairs == 1 and engine.grid.stats.io_retries == 1
    assert any("injected worker crash" in line for line in engine.resilience_log)

    _shim_matches_serial(graph, ALGOS[code], plan)


@pytest.mark.parametrize("code", list(ALGOS))
def test_prefetched_spill_is_bit_identical(small_rmat, small_symmetric, code):
    graph = _graph_for(code, small_rmat, small_symmetric)
    baseline = ALGOS[code](_engine(graph))
    spilled, engine = _shim_matches_serial(graph, ALGOS[code])
    _assert_identical(baseline, spilled)
    budget = engine.grid.budget
    assert 0 < budget.high_water_bytes <= budget.limit_bytes


@pytest.mark.parametrize(
    "spec, stat, value",
    [
        ("io_error@1", "io_retries", 1),
        ("torn_block@0", "repairs", 1),
        ("disk_full@0", "write_retries", 1),
    ],
)
def test_disk_faults_on_prefetched_blocks_recover_bit_identical(
    small_rmat, spec, stat, value
):
    """Each disk fault under :data:`SHIM` takes the repair/retry path it
    takes under ``serial``: the same counters, the same results."""
    baseline = bfs(_engine(small_rmat), 0)
    spilled, engine = _shim_matches_serial(small_rmat, ALGOS["BFS"], spec)
    _assert_identical(baseline, spilled)
    assert getattr(engine.grid.stats, stat) == value


def test_prefetched_compound_fault_plan_survives(small_rmat):
    baseline = pagerank(_engine(small_rmat), iterations=6)
    spilled, engine = _shim_matches_serial(
        small_rmat, ALGOS["PR"], "torn_block@1,io_error@3,worker_crash@2:0", retries=6
    )
    assert np.array_equal(spilled.ranks, baseline.ranks)
    assert engine.grid.stats.repairs == 1 and engine.grid.stats.io_retries == 1


def test_prefetched_slow_read_escalates_through_watchdog(small_rmat):
    baseline = bfs(_engine(small_rmat), 0)
    spilled, engine = _shim_matches_serial(
        small_rmat, ALGOS["BFS"], "slow_io@2", watchdog=Watchdog()
    )
    _assert_identical(baseline, spilled)
    assert engine.grid.stats.slow_reads == 1
    assert engine.journal.reexecutions == 1
