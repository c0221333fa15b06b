"""Recovery paths written once against the journal's one unit of work.

Two gaps a call trace of the suite found: nothing ever drove the
"digest went stale -> drop and re-execute" branch through an engine
(neither for a partition task nor for a grid block), and kill-and-resume
was only ever asserted for CC/PR/BFS although ``registry.resumable()``
names six algorithms.
"""

import numpy as np
import pytest

from repro._types import VAL_DTYPE
from repro.algorithms import registry
from repro.algorithms.pagerank import PageRankOp, pagerank
from repro.core import Engine, EngineOptions
from repro.errors import RetryExhausted, WorkerFailure
from repro.frontier.frontier import Frontier
from repro.layout import GraphStore
from repro.layout.grid import GridStore
from repro.resilience import (
    CheckpointManager,
    CheckpointSession,
    FaultPlan,
    ResiliencePolicy,
    make_store,
)

pytestmark = pytest.mark.faultinjection


# ----------------------------------------------------------------------
# a committed range whose writes did not survive re-executes its units
# ----------------------------------------------------------------------
class _CrashingPageRankOp(PageRankOp):
    """PageRankOp whose ``crash_at``-th batch dies (once)."""

    def __init__(self, contrib, accum, crash_at=0):
        super().__init__(contrib, accum)
        self.calls = 0
        self.crash_at = crash_at

    def process_edges(self, src, dst):
        self.calls += 1
        if self.calls == self.crash_at:
            raise WorkerFailure(f"injected crash in batch {self.calls}")
        return super().process_edges(src, dst)


def _run_one_phase(edges, tmp_path, *, grid, crash_at=0, lose=None):
    """One dense edge-map of a PageRank step; ``lose(engine, op)`` runs
    between the failed attempt and the retry."""
    store = GraphStore.build(edges, num_partitions=8)
    policy = ResiliencePolicy(
        max_retries=2, backoff_base=0.01, sleep=lambda _delay: lose(engine, op)
    )
    engine = Engine(
        store,
        # the operator raises inside its batch, so it has to run in process
        EngineOptions(num_threads=4, forced_layout="coo", backend="serial"),
        resilience=policy,
        grid=GridStore.build(edges, tmp_path / "grid", num_stripes=3) if grid else None,
    )
    n = engine.num_vertices
    op = _CrashingPageRankOp(
        np.full(n, 1.0 / n, dtype=VAL_DTYPE), np.zeros(n, dtype=VAL_DTYPE), crash_at
    )
    with engine:
        engine.edge_map(Frontier.full(n), op)
    return engine, op


#: the unit kind -> the batch that dies, the units then committed whose
#: range is lost, and what the retry must do.
#:
#: partition: batches 1-3 are partitions 0-2; partition 3 dies; partition
#: 1's slice is lost.  The retry replays 0 and 2 and runs 1 and 3 again.
#:
#: grid block: 3x3 blocks, stripe-major, labelled (destination stripe,
#: source block); batches 1-3 are stripe 0's blocks, batch 4 is block
#: (1,0), and block (1,1) dies.  Stripe 0's slice is lost, so its three
#: blocks run again (one digest covers the stripe), (1,0) replays, (1,1)
#: runs again.
STALE = {
    "partition": dict(grid=False, crash_at=4, lost=["partition 1"],
                      reexecutions=2, replays=2),
    "grid block": dict(grid=True, crash_at=5,
                       lost=["block (0,0)", "block (0,1)", "block (0,2)"],
                       reexecutions=4, replays=1),
}


@pytest.mark.parametrize("kind", list(STALE))
def test_stale_digest_reexecutes_the_range_instead_of_replaying(tmp_path, small_rmat, kind):
    case = STALE[kind]

    def lose(engine, op):
        # the lost range: partition 1's, or destination stripe 0's
        ranges = engine.grid.stripes if case["grid"] else engine.store.coo.partition
        lo, hi = ranges.vertex_range(0 if case["grid"] else 1)
        assert op.accum[lo:hi].any(), "the committed units wrote nothing to lose"
        op.accum[lo:hi] = 0.0  # back to the pre-phase value: the writes are gone

    clean, expected = _run_one_phase(small_rmat, tmp_path / "clean", grid=case["grid"])
    assert clean.journal.reexecutions == 0
    if case["grid"]:
        assert clean.journal.num_commits() == 9, "the 3x3 grid has an empty block"

    engine, op = _run_one_phase(
        small_rmat, tmp_path / "faulted", grid=case["grid"],
        crash_at=case["crash_at"], lose=lose,
    )
    journal = engine.journal
    assert np.array_equal(op.accum, expected.accum)
    assert journal.reexecutions == case["reexecutions"]
    assert journal.replays == case["replays"]
    dropped = [e for e in journal.entries if "dropped stale record" in e]
    assert len(dropped) == 1 and all(unit in dropped[0] for unit in case["lost"])
    for unit in case["lost"]:  # re-executed, never replayed
        assert f"phase 0: replay {unit}" not in journal.entries
        assert f"phase 0: start {unit} (execution 2)" in journal.entries


def test_intact_digest_replays_every_committed_unit(tmp_path, small_rmat):
    """The other side of the rule, same crash: nothing lost, nothing dropped."""
    _, expected = _run_one_phase(small_rmat, tmp_path / "clean", grid=True)
    engine, op = _run_one_phase(
        small_rmat, tmp_path / "faulted", grid=True, crash_at=5, lose=lambda *_: None
    )
    assert np.array_equal(op.accum, expected.accum)
    assert engine.journal.reexecutions == 1  # only the block that died
    assert engine.journal.replays == 4
    assert not any("dropped" in e for e in engine.journal.entries)


# ----------------------------------------------------------------------
# the same journal under a concurrent batch
# ----------------------------------------------------------------------
def test_concurrent_batch_commits_every_unit_and_recovers_the_whole_phase(small_rmat):
    """``run_tasks(concurrent=True)``: the hooks fire parent-side before the
    batch is dispatched, so a crash on partition 3 finds nothing committed
    and the phase re-runs as a whole — nothing replays, nothing runs twice,
    and every dispatched unit is committed through the one ``commit``."""
    store = GraphStore.build(small_rmat, num_partitions=8)
    baseline = pagerank(Engine(store, EngineOptions(num_threads=4, backend="serial")), iterations=4)
    policy = ResiliencePolicy(max_retries=2, fault_plan=FaultPlan.from_spec("worker_crash@1:3"))
    options = EngineOptions(num_threads=4, backend="process:workers=2")
    with Engine(store, options, resilience=policy) as engine:
        faulted = pagerank(engine, iterations=4)
    assert np.array_equal(faulted.ranks, baseline.ranks)
    backend, journal = engine.backend_stats, engine.journal
    assert (backend.fallbacks, backend.batches_dispatched, backend.partitions_dispatched) == (0, 4, 32)
    assert sum(": commit partition" in e for e in journal.entries) == 32
    assert (journal.reexecutions, journal.replays) == (0, 0)
    assert any("edge-map 1 attempt 0 faulted" in line for line in engine.resilience_log)


# ----------------------------------------------------------------------
# kill-and-resume, for every algorithm the registry calls resumable
# ----------------------------------------------------------------------
def _supervised(edges, balance, spec=None):
    store = GraphStore.build(edges, num_partitions=8, balance=balance)
    plan = FaultPlan.from_spec(spec) if spec else None
    policy = ResiliencePolicy(max_retries=0, fault_plan=plan)
    return Engine(store, EngineOptions(num_threads=4), resilience=policy)


def test_resumable_names_the_algorithms_with_a_checkpoint_adapter():
    assert registry.resumable() == ["CC", "PR", "BFS", "PRDelta", "BF", "BP"]


@pytest.mark.parametrize("code", registry.resumable())
def test_killed_run_resumes_bit_identical(tmp_path, small_rmat, small_symmetric, code):
    spec = registry.get(code)
    graph = small_symmetric if code == "CC" else small_rmat
    baseline = spec.run(_supervised(graph, spec.balance))
    phases = baseline.stats.num_iterations
    assert phases >= 2, "nothing to interrupt"

    def session(resume):
        manager = CheckpointManager(store=make_store("local", tmp_path / "ck"))
        return CheckpointSession(manager, f"{code}-killed", resume=resume)

    # no retries: the crash before edge-map ``phases // 2`` is a hard kill
    killed = _supervised(graph, spec.balance, f"worker_crash@{phases // 2}")
    with pytest.raises(RetryExhausted):
        spec.run_resumable(killed, session(resume=False))
    assert session(resume=False).manager.steps(f"{code}-killed"), "no checkpoint to resume from"

    resumed = spec.run_resumable(_supervised(graph, spec.balance), session(resume=True))
    assert resumed.stats.num_iterations < phases  # it resumed, it did not start over
    arrays = registry.result_arrays(baseline)
    assert arrays
    for name, value in arrays.items():
        assert np.array_equal(getattr(resumed, name), value), name
