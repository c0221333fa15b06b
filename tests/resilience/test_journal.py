"""PhaseJournal: the write-ahead intent log behind partition-granular
recovery, plus its integration with the supervised engine.

The acceptance criterion of the partition-granular tentpole: a
``worker_crash`` injected on partition *k* mid-phase must re-execute
*only* partition *k* — asserted through the journal's re-execution
count — and still end bit-identical to the fault-free run.
"""

import numpy as np
import pytest

from repro._types import VID_DTYPE
from repro.algorithms.pagerank import pagerank
from repro.core import Engine, EngineOptions
from repro.graph import generators as gen
from repro.layout import GraphStore
from repro.resilience import FaultPlan, PartitionRecord, PhaseJournal, ResiliencePolicy

pytestmark = pytest.mark.faultinjection


# ----------------------------------------------------------------------
# unit behaviour
# ----------------------------------------------------------------------
def _record(partition, lo=0, hi=4, digest=0):
    rec = PartitionRecord.empty(partition, lo, hi)
    rec.digest = digest
    return rec


def test_begin_phase_clears_only_on_phase_change():
    j = PhaseJournal()
    j.begin_phase(0)
    j.commit(_record(1))
    j.begin_phase(0)  # supervised retry of the same phase
    assert j.num_commits() == 1
    j.begin_phase(1)  # a new phase
    assert not j.has_commits()


def test_note_execution_counts_reexecutions_per_phase():
    j = PhaseJournal()
    j.begin_phase(0)
    j.note_execution(2)
    assert j.reexecutions == 0
    j.note_execution(2)
    j.note_execution(2)
    assert j.reexecutions == 2
    j.begin_phase(1)
    j.note_execution(2)  # first execution within the new phase
    assert j.reexecutions == 2


def test_commit_completed_and_drop():
    j = PhaseJournal()
    j.begin_phase(3)
    rec = _record(5, lo=10, hi=20, digest=0xDEAD)
    j.commit(rec)
    assert j.completed(5) is rec
    assert j.completed(4) is None
    j.drop_range(10, 20)
    assert j.completed(5) is None
    assert j.committed_digest(10, 20) is None


def test_invalidate_discards_records_and_logs():
    j = PhaseJournal()
    j.begin_phase(0)
    j.commit(_record(0))
    j.invalidate()
    assert not j.has_commits()
    assert j.completed(0) is None


def test_replay_counter():
    j = PhaseJournal()
    j.begin_phase(0)
    j.note_replay(1)
    j.note_replay(2)
    assert j.replays == 2


def test_empty_record_has_no_activations():
    rec = PartitionRecord.empty(2, 8, 8)
    assert rec.activated.size == 0
    assert rec.activated.dtype == VID_DTYPE  # like every kernel's record
    assert (rec.examined, rec.touched, rec.active_edges, rec.scanned) == (0, 0, 0, 0)


# ----------------------------------------------------------------------
# engine integration: crash on partition k re-executes only partition k
# ----------------------------------------------------------------------
@pytest.fixture
def graph():
    return gen.rmat(8, 6.0, seed=3)


def _engine(edges, spec=None, retries=4):
    store = GraphStore.build(edges, num_partitions=8)
    policy = None
    if spec is not None:
        policy = ResiliencePolicy(
            max_retries=retries, fault_plan=FaultPlan.from_spec(spec)
        )
    return Engine(store, EngineOptions(num_threads=4), resilience=policy)


def test_supervised_engine_creates_a_journal(graph):
    assert _engine(graph, "worker_crash@0").journal is not None
    assert _engine(graph).journal is None


def test_crash_on_partition_k_reexecutes_only_k(graph):
    baseline = pagerank(_engine(graph), iterations=6)
    engine = _engine(graph, "worker_crash@1:3")
    faulted = pagerank(engine, iterations=6)
    assert np.array_equal(faulted.ranks, baseline.ranks)
    # partitions 0..2 committed before the crash and were replayed, not rerun
    assert engine.journal.reexecutions == 1
    assert engine.journal.replays == 3
    assert any(
        "keeping 3 committed partition(s)" in line for line in engine.resilience_log
    )


def test_crash_on_first_partition_falls_back_to_whole_phase(graph):
    """With nothing committed yet there is nothing to keep — and nothing
    runs twice either, because the phase had not progressed."""
    baseline = pagerank(_engine(graph), iterations=6)
    engine = _engine(graph, "worker_crash@1:0")
    faulted = pagerank(engine, iterations=6)
    assert np.array_equal(faulted.ranks, baseline.ranks)
    assert engine.journal.reexecutions == 0
    assert engine.journal.replays == 0


def test_two_crashes_two_reexecutions(graph):
    engine = _engine(graph, "worker_crash@1:2,worker_crash@3:5", retries=6)
    baseline = pagerank(_engine(graph), iterations=6)
    faulted = pagerank(engine, iterations=6)
    assert np.array_equal(faulted.ranks, baseline.ranks)
    assert engine.journal.reexecutions == 2
    assert engine.journal.replays == 2 + 5


def test_oom_invalidates_journal(graph, journal_calls):
    """Degrading the partition count makes records unreplayable: ids and
    destination ranges both changed under the journal.  The OOM is
    partition-scoped so commits exist when the degradation hits."""
    engine = _engine(graph, "oom@1:3")
    baseline = pagerank(_engine(graph), iterations=4)
    faulted = pagerank(engine, iterations=4)
    assert np.array_equal(faulted.ranks, baseline.ranks)
    assert any(name == "invalidate" and held for name, _, _, held in journal_calls)
    # nothing was replayed: degradation made the three commits useless
    assert engine.journal.replays == 0


def test_journal_commits_cover_every_partition(graph, journal_calls):
    engine = _engine(graph, "worker_crash@2:1")
    pagerank(engine, iterations=4)
    commits = sum(name == "commit" for name, *_ in journal_calls)
    starts = sum(name == "note_execution" for name, *_ in journal_calls)
    assert commits >= starts - 1  # only the crashed attempt lacks one


def test_intent_entries_are_write_ahead(graph, journal_calls):
    """A unit's execution is noted before its commit, in the same phase."""
    pagerank(_engine(graph, "worker_crash@1:3"), iterations=3)
    units = [call[:3] for call in journal_calls]
    commits = [i for i, (name, *_) in enumerate(units) if name == "commit"]
    assert commits
    for i in commits:
        assert ("note_execution", *units[i][1:]) in units[:i]
