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
from repro.core.ops import WriteSet
from repro.errors import WorkerFailure
from repro.frontier.frontier import Frontier
from repro.layout import GraphStore
from repro.layout.grid import GridStore
from repro.resilience import FaultPlan, ResiliencePolicy
from tests.lattice import Config, check, midway

pytestmark = pytest.mark.faultinjection


# ----------------------------------------------------------------------
# a committed range whose writes did not survive re-executes its units
# ----------------------------------------------------------------------
class _CrashingPageRankOp(PageRankOp):
    """PageRankOp whose ``crash_at``-th batch dies (once), calling ``lose()``
    just before it raises."""

    def __init__(self, contrib, accum, crash_at, lose):
        super().__init__(contrib, accum)
        self.calls = 0
        self.crash_at = crash_at
        self.lose = lose

    def process_edges(self, src, dst):
        self.calls += 1
        if self.calls == self.crash_at:
            self.lose()
            raise WorkerFailure(f"injected crash in batch {self.calls}")
        return super().process_edges(src, dst)


def _run_one_phase(edges, tmp_path, *, grid, crash_at=0, lose=None):
    """One dense edge-map of a PageRank step; ``lose(engine, op)`` runs
    in the batch that dies, just before it raises."""
    store = GraphStore.build(edges, num_partitions=8)
    engine = Engine(
        store,
        # the operator raises inside its batch, so it has to run in process
        EngineOptions(num_threads=4, forced_layout="coo", backend="serial"),
        resilience=ResiliencePolicy(max_retries=2),
        grid=GridStore.build(edges, tmp_path / "grid", num_stripes=3) if grid else None,
    )
    n = engine.num_vertices
    op = _CrashingPageRankOp(
        np.full(n, 1.0 / n, dtype=VAL_DTYPE), np.zeros(n, dtype=VAL_DTYPE), crash_at,
        lambda: lose(engine, op),
    )
    with engine:
        engine.edge_map(Frontier.full(n), op)
    return engine, op


#: the unit kind -> the batch that dies, the ``(partition, block)`` units
#: then committed whose range is lost, and what the retry must do.
#:
#: partition: batches 1-3 are partitions 0-2; partition 3 dies; partition
#: 1's slice is lost.  The retry replays 0 and 2 and runs 1 and 3 again.
#:
#: grid block: 3x3 blocks, stripe-major, labelled (destination stripe,
#: source block); batches 1-3 are stripe 0's blocks, batch 4 is block
#: (1,0), and block (1,1) dies.  Stripe 0's slice is lost, so its three
#: blocks run again (one digest covers the stripe), (1,0) replays, (1,1)
#: runs again.
#:
#: in-flight stripe: the same crash, but the slice lost is stripe 1's,
#: by the rollback of (1,1) itself.  (1,0)'s commit carried no digest
#: (the stripe is digested after its last block), so the digest the retry
#: compares is the one sealed when (1,1) died — of its snapshot, the
#: state (1,0) committed, not of the range the rollback left.  (1,0) and
#: (1,1) run again; stripe 0 replays.
STALE = {
    "partition": dict(grid=False, crash_at=4, range=1, lost=[(1, None)],
                      reexecutions=2, replays=2),
    "grid block": dict(grid=True, crash_at=5, range=0,
                       lost=[(0, 0), (0, 1), (0, 2)],
                       reexecutions=4, replays=1),
    "in-flight stripe": dict(grid=True, crash_at=5, range=1, in_rollback=True,
                             lost=[(1, 0)], reexecutions=2, replays=3),
}


@pytest.mark.parametrize("kind", list(STALE))
def test_stale_digest_reexecutes_the_range_instead_of_replaying(
    tmp_path, small_rmat, monkeypatch, journal_calls, kind
):
    case = STALE[kind]

    def lose(accum):
        assert accum.any(), "the committed units wrote nothing to lose"
        accum[...] = 0.0  # back to the pre-phase value: the writes are gone

    def lose_before_the_retry(engine, op):
        ranges = engine.grid.stripes if case["grid"] else engine.store.coo.partition
        lo, hi = ranges.vertex_range(case["range"])
        lose(op.accum[lo:hi])

    def restore_then_lose(owned, saved):
        restore(owned, saved)
        lose(owned.slices["accum"])

    clean, expected = _run_one_phase(small_rmat, tmp_path / "clean", grid=case["grid"])
    assert clean.journal.reexecutions == 0
    if case["grid"]:
        assert clean.journal.num_commits() == 9, "the 3x3 grid has an empty block"
    journal_calls.clear()

    if case.get("in_rollback"):
        restore = WriteSet.restore
        monkeypatch.setattr(WriteSet, "restore", restore_then_lose)
    engine, op = _run_one_phase(
        small_rmat, tmp_path / "faulted", grid=case["grid"], crash_at=case["crash_at"],
        lose=(lambda *_: None) if case.get("in_rollback") else lose_before_the_retry,
    )
    journal = engine.journal
    assert np.array_equal(op.accum, expected.accum)
    assert journal.reexecutions == case["reexecutions"]
    assert journal.replays == case["replays"]
    ranges = engine.grid.stripes if case["grid"] else engine.store.coo.partition
    calls = [call[:3] for call in journal_calls]
    assert [key for name, _, key in calls if name == "drop_range"] == [
        ranges.vertex_range(case["range"])
    ]
    for unit in case["lost"]:  # re-executed, never replayed
        assert ("note_replay", 0, unit) not in calls
        assert calls.count(("note_execution", 0, unit)) == 2


def test_intact_digest_replays_every_committed_unit(tmp_path, small_rmat, journal_calls):
    """The other side of the rule, same crash: nothing lost, nothing dropped."""
    _, expected = _run_one_phase(small_rmat, tmp_path / "clean", grid=True)
    engine, op = _run_one_phase(
        small_rmat, tmp_path / "faulted", grid=True, crash_at=5, lose=lambda *_: None
    )
    assert np.array_equal(op.accum, expected.accum)
    assert engine.journal.reexecutions == 1  # only the block that died
    assert engine.journal.replays == 4
    assert not any(name == "drop_range" for name, *_ in journal_calls)


def test_a_stripe_is_digested_once_not_once_per_block(
    tmp_path, small_rmat, monkeypatch, journal_calls
):
    """A fault-free spilled phase digests each destination stripe after its
    last block commits; the blocks before it commit without a digest."""
    digest, calls = WriteSet.digest, []

    def spy(owned, *saved):
        calls.append(saved)
        return digest(owned, *saved)

    monkeypatch.setattr(WriteSet, "digest", spy)
    engine, _ = _run_one_phase(small_rmat, tmp_path, grid=True)
    commits = [key for name, _, key, _ in journal_calls if name == "commit"]
    stripes = {stripe for stripe, _ in commits}
    assert (len(commits), len(stripes)) == (9, 3)
    assert calls == [()] * len(stripes)  # each of the live range
    digested = [engine.journal.completed(*unit).digest is not None for unit in commits]
    assert sum(digested) == len(stripes)


# ----------------------------------------------------------------------
# the same journal under a concurrent batch
# ----------------------------------------------------------------------
def test_concurrent_batch_commits_every_unit_and_recovers_the_whole_phase(
    small_rmat, journal_calls
):
    """``run_tasks(concurrent=True)``: the hooks fire in the engine's thread
    before the batch is dispatched, so a crash on partition 3 finds nothing committed
    and the phase re-runs as a whole — nothing replays, nothing runs twice,
    and every dispatched unit is committed through the one ``commit``."""
    store = GraphStore.build(small_rmat, num_partitions=8)
    baseline = pagerank(Engine(store, EngineOptions(num_threads=4, backend="serial")), iterations=4)
    policy = ResiliencePolicy(max_retries=2, fault_plan=FaultPlan.from_spec("worker_crash@1:3"))
    options = EngineOptions(num_threads=4, backend="threads:workers=2")
    with Engine(store, options, resilience=policy) as engine:
        faulted = pagerank(engine, iterations=4)
    assert np.array_equal(faulted.ranks, baseline.ranks)
    backend, journal = engine.backend_stats, engine.journal
    assert (backend.fallbacks, backend.batches_dispatched, backend.partitions_dispatched) == (0, 4, 32)
    commits = [key for name, _, key, _ in journal_calls if name == "commit"]
    assert len(commits) == 32 and all(block is None for _, block in commits)
    assert (journal.reexecutions, journal.replays) == (0, 0)
    assert any("edge-map 1 attempt 0 faulted" in line for line in engine.resilience_log)


# ----------------------------------------------------------------------
# kill-and-resume, for every algorithm the registry calls resumable
# ----------------------------------------------------------------------
def test_resumable_names_the_algorithms_with_a_checkpoint_adapter():
    assert registry.resumable() == ["CC", "PR", "BFS", "PRDelta", "BF", "BP"]


@pytest.mark.parametrize("code", registry.resumable())
def test_killed_run_resumes_bit_identical(code):
    """A hard kill before the middle edge-map, resumed from the store: a
    point of the lattice (:mod:`tests.lattice`)."""
    check(midway(Config(code, "small_symmetric" if code == "CC" else "small_rmat", store="local")))
