"""Acceptance matrix of the out-of-core grid spill tentpole.

A supervised run whose three-copy layout exceeds the memory budget must
degrade to streamed grid execution and finish bit-identical to the
in-RAM run — for BFS, PageRank and connected components — with the
governor's resident high-water mark never exceeding the budget.  The
same holds under every disk fault kind (transient I/O errors, slow
reads escalated by the watchdog, torn blocks healed on read, a full
disk during preprocessing), under a worker crash mid-stream (only the
in-flight block re-executes), and across a kill-and-resume.

Each test is a point of the lattice (:mod:`tests.lattice`): the oracle,
the budget and block-count laws and the residue check decide it, and the
test adds the counts that point is about.
"""

import dataclasses
import threading

import pytest

from repro.algorithms.bfs import bfs
from repro.core import Engine, EngineOptions
from repro.core.budget import parse_memory_budget
from repro.core.stats import EdgeMapStats
from repro.layout import GraphStore
from repro.layout.grid import GridStore
from repro.resilience import ResiliencePolicy
from tests.lattice import Config, check, oracle

pytestmark = pytest.mark.faultinjection

#: small enough that the rmat(8) three-copy layout (~22 KiB) overflows
#: it, forcing the spill rung, and that the grid's stored blocks (4.6 KiB
#: for ``small_rmat``, 8 KiB for ``small_symmetric``) do too, so every
#: spilled run evicts; large enough to hold a few grid blocks.
BUDGET = "3K"
ALGOS = ["BFS", "PR", "CC"]
#: the spec the benchmark's spill row still names.  Grid blocks are read
#: in the engine's thread whatever it says.
SHIM = "serial:prefetch=2"


def _spilled(code="BFS", faults="", **axes) -> Config:
    graph = "small_symmetric" if code == "CC" else "small_rmat"
    return Config(code, graph, spill=True, budget=BUDGET, faults=faults, **axes)


def _grid(obs) -> dict:
    assert obs.grid is not None, "the run never degraded to the grid"
    return dict(obs.grid)


def _check(config: Config, twin: Config | None = None):
    """:func:`~tests.lattice.check`, plus the premise of a spilled run: its
    grid does not fit the budget, so the suite exercises eviction rather
    than an in-cache grid."""
    obs = check(config, twin=twin)
    if config.spill and config.budget == BUDGET:
        grid = _grid(obs)
        assert grid["total_bytes"] > grid["limit_bytes"], (
            f"the grid's {grid['total_bytes']} B fit the {BUDGET} budget"
        )
    return obs


def _shimmed(config: Config):
    """``config`` under :data:`SHIM`, held to the same run under ``serial``."""
    return _check(dataclasses.replace(config, backend=SHIM), twin=config)


# ----------------------------------------------------------------------
# the core claim: oversubscribed runs spill and stay bit-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", ALGOS)
def test_oversubscribed_run_spills_bit_identical(code):
    obs = _check(_spilled(code))
    grid = _grid(obs)
    assert any("out-of-core grid" in line for line in obs.log)
    assert grid["limit_bytes"] == parse_memory_budget(BUDGET) and grid["high_water_bytes"] > 0
    assert grid["block_reads"] > 0


def test_selective_scheduling_skips_inactive_blocks():
    # Sparse early frontiers leave whole source stripes inactive.
    assert _grid(_check(_spilled()))["blocks_skipped"] > 0


def test_spill_requires_opt_in(small_rmat):
    # Without a budget or spill dir the ladder never reaches the grid:
    # pre-existing halving behaviour is preserved.
    store = GraphStore.build(small_rmat, num_partitions=8)
    with Engine(store, EngineOptions(num_threads=4), resilience=ResiliencePolicy()) as engine:
        bfs(engine, 0)
        assert engine.grid is None


def test_explicit_stripes_override():
    assert _grid(_check(_spilled(stripes=5)))["num_stripes"] == 5


def test_halving_bottoms_out_then_spills():
    # A budget the layout fits under never trips the proactive check;
    # injected OOMs (no byte accounting) walk the halving ladder to the
    # p=1 floor first, and only then does the opted-in policy spill.
    obs = check(Config("PR", "small_rmat", spill=True, budget="1G",
                       faults="oom@0,oom@0,oom@0,oom@0"))
    assert obs.partitions == 1  # 8 -> 4 -> 2 -> 1
    _grid(obs)  # the rung below the floor


def test_spill_dir_is_used_and_persists(tmp_path, small_rmat):
    policy = ResiliencePolicy(memory_budget=BUDGET, spill_dir=str(tmp_path))
    store = GraphStore.build(small_rmat, num_partitions=8)
    with Engine(store, EngineOptions(num_threads=4), resilience=policy) as engine:
        bfs(engine, 0)
    assert (tmp_path / "grid.mf").exists()


# ----------------------------------------------------------------------
# the disk fault matrix, each bit-identical to the oracle
# ----------------------------------------------------------------------
DISK_FAULTS = [
    ("io_error@1", "io_retries", 1),
    ("torn_block@0", "repairs", 1),
    ("disk_full@0", "write_retries", 1),
]


@pytest.mark.parametrize("spec, stat, value", DISK_FAULTS)
def test_disk_faults_recovered_bit_identical(spec, stat, value):
    assert _grid(_check(_spilled(faults=spec)))[stat] == value


def test_slow_read_escalates_through_watchdog():
    obs = _check(_spilled(faults="slow_io@2"))
    assert _grid(obs)["slow_reads"] == 1
    # The stalled block re-executed (served from cache on the retry).
    assert obs.journal[1] == 1


def test_worker_crash_mid_stream_reexecutes_one_block():
    # Block-granular recovery: exactly one unit of work re-ran, the
    # already-committed blocks of the stripe replayed from the journal.
    replays, reexecutions = _check(_spilled("PR", "worker_crash@1:1")).journal
    assert reexecutions == 1 and replays > 0


def test_compound_fault_plan_survives():
    grid = _grid(_check(_spilled("PR", "torn_block@1,io_error@3,worker_crash@2:0")))
    assert grid["repairs"] == 1 and grid["io_retries"] == 1


# ----------------------------------------------------------------------
# kill-and-resume: a hard kill mid-spill resumes bit-identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", ALGOS)
def test_killed_spilled_run_resumes_bit_identical(code):
    _check(_spilled(code, store="local", kill="worker_crash@2:1"))


# ----------------------------------------------------------------------
# a full-frontier phase folds nothing, replayed blocks included
# ----------------------------------------------------------------------
#: the ``EdgeMapStats`` fields that do not describe the layout streamed.
_LAYOUT_FREE = (
    "density", "frontier_size", "active_edges", "examined_edges",
    "scanned_vertices", "updated_vertices",
)


def _rows(obs) -> list[dict]:
    fields = [f.name for f in dataclasses.fields(EdgeMapStats)]
    return [dict(zip(fields, row, strict=True)) for row in obs.rows]


def test_worker_crash_mid_phase_replays_and_still_folds_nothing(monkeypatch):
    """A crash in the middle of a spilled PageRank phase: the stripe that
    committed replays from the journal, the rest re-execute, and the fold
    still looks the next frontier up — a replayed record keeps its
    ``all_dst`` flag, and the grid's cached counts are its ``touched``.
    Nothing a caller sees moves: the ranks and the layout-free statistics
    equal the in-RAM engine's, and the whole observation equals the same
    crash down the path that folds (the mechanism twin with a bitmap).
    Against the fault-free
    spilled run only the faulted phase's ``io_bytes``/``io_blocks``
    differ: they count the retry's reads, and the replayed blocks were
    not read."""
    looked_up = []
    fold = Engine._fold

    def spy(engine, plan, frontier, density, records):
        nxt = fold(engine, plan, frontier, density, records)
        flagged = bool(records) and all(rec.all_dst for rec in records)
        looked_up.append(flagged and nxt is engine._per_store.get("in-edge-frontier"))
        return nxt

    crashed = _spilled("PR", "worker_crash@2:1")
    oracle(crashed.graph, "PR")  # warm: the oracle's folds are not the spilled run's
    monkeypatch.setattr(Engine, "_fold", spy)
    obs = _check(crashed, twin=dataclasses.replace(crashed, bitmap=True))
    assert looked_up == [True] * 10 + [False] * 10
    replays, reexecutions = obs.journal
    assert reexecutions == 1 and replays > 0
    rows = _rows(obs)
    for got, want in zip(rows, _rows(check(Config("PR", "small_rmat"))), strict=True):
        assert got["layout"] == "grid"
        assert {k: got[k] for k in _LAYOUT_FREE} == {k: want[k] for k in _LAYOUT_FREE}
    clean = _rows(_check(_spilled("PR")))
    assert rows[2]["io_blocks"] < clean[2]["io_blocks"]
    for row in (clean[2], rows[2]):
        del row["io_bytes"], row["io_blocks"]
    assert rows == clean


# ----------------------------------------------------------------------
# the ``serial:prefetch=N`` shim: parsed, and nothing else
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", ALGOS)
def test_the_prefetch_shim_starts_no_thread_and_changes_nothing(monkeypatch, code):
    """A supervised spill under :data:`SHIM`, through a torn block, an I/O
    error and a worker crash: every block is read in the engine's thread,
    and nothing differs from the same run under ``serial``."""
    read_block, inside = GridStore.read_block, []

    def spy(grid, i, j):
        inside.append(frozenset(threading.enumerate()))
        return read_block(grid, i, j)

    monkeypatch.setattr(GridStore, "read_block", spy)
    before = frozenset(threading.enumerate())
    obs = _shimmed(_spilled(code, "torn_block@0,io_error@1,worker_crash@2:0"))
    assert inside and set(inside) == {before}
    grid = _grid(obs)
    assert grid["repairs"] == 1 and grid["io_retries"] == 1
    assert any("injected worker crash" in line for line in obs.log)


@pytest.mark.parametrize("code", ALGOS)
def test_prefetched_spill_is_bit_identical(code):
    assert _grid(_shimmed(_spilled(code)))["high_water_bytes"] > 0


@pytest.mark.parametrize("spec, stat, value", DISK_FAULTS)
def test_disk_faults_on_prefetched_blocks_recover_bit_identical(spec, stat, value):
    """Each disk fault under :data:`SHIM` takes the repair/retry path it
    takes under ``serial``: the same counters, the same results."""
    assert _grid(_shimmed(_spilled(faults=spec)))[stat] == value


def test_prefetched_compound_fault_plan_survives():
    grid = _grid(_shimmed(_spilled("PR", "torn_block@1,io_error@3,worker_crash@2:0")))
    assert grid["repairs"] == 1 and grid["io_retries"] == 1


def test_prefetched_slow_read_escalates_through_watchdog():
    obs = _shimmed(_spilled(faults="slow_io@2"))
    assert _grid(obs)["slow_reads"] == 1 and obs.journal[1] == 1
