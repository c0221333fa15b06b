"""CheckpointManager/CheckpointSession: atomicity, integrity, resume."""

import os

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.pagerank import pagerank
from repro.core import Engine, EngineOptions
from repro.errors import CheckpointCorruptError, CheckpointError, RetryExhausted
from repro.layout import GraphStore
from repro.resilience import (
    CheckpointManager,
    CheckpointSession,
    FaultPlan,
    ResiliencePolicy,
)


def test_save_load_roundtrip(tmp_path):
    mgr = CheckpointManager(tmp_path)
    arrays = {"a": np.arange(5, dtype=np.int64), "b": np.linspace(0, 1, 4)}
    mgr.save("run", 3, arrays)
    back = mgr.load("run", 3)
    assert set(back) == {"a", "b"}
    assert np.array_equal(back["a"], arrays["a"])
    assert np.array_equal(back["b"], arrays["b"])


def test_save_leaves_no_tmp_files(tmp_path):
    mgr = CheckpointManager(tmp_path)
    mgr.save("run", 1, {"x": np.zeros(3)})
    assert not list(tmp_path.glob("*.tmp"))


def test_steps_listing_sorted(tmp_path):
    mgr = CheckpointManager(tmp_path)
    for step in (5, 1, 3):
        mgr.save("run", step, {"x": np.array([step])})
    assert mgr.steps("run") == [1, 3, 5]
    assert mgr.steps("other") == []


def test_load_missing_checkpoint_raises(tmp_path):
    mgr = CheckpointManager(tmp_path)
    with pytest.raises(CheckpointError):
        mgr.load("run", 7)


def test_corrupt_payload_detected_by_crc(tmp_path):
    mgr = CheckpointManager(tmp_path)
    path = mgr.save("run", 2, {"x": np.arange(10)})
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorruptError):
        mgr.load("run", 2)


def test_truncated_file_detected(tmp_path):
    mgr = CheckpointManager(tmp_path)
    path = mgr.save("run", 2, {"x": np.arange(10)})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointCorruptError):
        mgr.load("run", 2)


def test_bad_magic_detected(tmp_path):
    mgr = CheckpointManager(tmp_path)
    path = mgr.path_for("run", 1)
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointCorruptError):
        mgr.load("run", 1)


def test_load_latest_falls_back_over_corruption(tmp_path):
    mgr = CheckpointManager(tmp_path)
    mgr.save("run", 1, {"x": np.array([1])})
    mgr.save("run", 2, {"x": np.array([2])})
    path = mgr.save("run", 3, {"x": np.array([3])})
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    step, arrays = mgr.load_latest("run")
    assert step == 2
    assert arrays["x"][0] == 2
    with pytest.raises(CheckpointCorruptError):
        mgr.load_latest("run", allow_fallback=False)


def test_load_latest_empty_returns_none(tmp_path):
    assert CheckpointManager(tmp_path).load_latest("nothing") is None


def test_fault_plan_corrupts_written_checkpoint(tmp_path):
    plan = FaultPlan.from_spec("corrupt_checkpoint@2")
    mgr = CheckpointManager(tmp_path, fault_plan=plan)
    mgr.save("run", 1, {"x": np.array([1])})
    mgr.save("run", 2, {"x": np.array([2])})
    mgr.load("run", 1)
    with pytest.raises(CheckpointCorruptError):
        mgr.load("run", 2)


def test_session_cadence(tmp_path):
    mgr = CheckpointManager(tmp_path)
    sess = CheckpointSession(mgr, "run", every=2)
    for step in range(1, 6):
        sess.save(step, {"x": np.array([step])})
    assert mgr.steps("run") == [2, 4]
    # restore hands back plain data: (0, None) unless asked to resume
    assert sess.restore() == (0, None)
    step, arrays = CheckpointSession(mgr, "run", resume=True).restore()
    assert step == 4 and arrays["x"].tolist() == [4]
    assert CheckpointSession(mgr, "other", resume=True).restore() == (0, None)


def test_session_rejects_bad_cadence(tmp_path):
    with pytest.raises(ValueError):
        CheckpointSession(CheckpointManager(tmp_path), "run", every=0)


# ----------------------------------------------------------------------
# killed-and-resumed runs are bit-identical to uninterrupted runs
# ----------------------------------------------------------------------
def _engine(edges, partitions=8, resilience=None):
    store = GraphStore.build(edges, num_partitions=partitions)
    return Engine(store, EngineOptions(num_threads=4), resilience=resilience)


def test_bfs_killed_and_resumed_matches_uninterrupted(tmp_path, small_rmat):
    baseline = bfs(_engine(small_rmat), 0)
    assert baseline.rounds > 2, "graph too small to test mid-run kill"

    mgr = CheckpointManager(tmp_path)
    kill = ResiliencePolicy(
        max_retries=0, fault_plan=FaultPlan.from_spec("worker_crash@2")
    )
    with pytest.raises(RetryExhausted):
        bfs(
            _engine(small_rmat, resilience=kill),
            0,
            checkpoint=CheckpointSession(mgr, "bfs-run"),
        )
    assert mgr.steps("bfs-run"), "the killed run should have checkpointed progress"

    resumed = bfs(
        _engine(small_rmat),
        0,
        checkpoint=CheckpointSession(mgr, "bfs-run", resume=True),
    )
    assert resumed.rounds == baseline.rounds
    assert np.array_equal(resumed.parent, baseline.parent)
    assert np.array_equal(resumed.level, baseline.level)
    # the resumed run re-executed only the tail of the iterations
    assert resumed.stats.num_iterations < baseline.stats.num_iterations


def test_pagerank_killed_and_resumed_matches_uninterrupted(tmp_path, small_rmat):
    baseline = pagerank(_engine(small_rmat), iterations=10)

    mgr = CheckpointManager(tmp_path)
    kill = ResiliencePolicy(max_retries=0, fault_plan=FaultPlan.from_spec("oom@5"))
    with pytest.raises(RetryExhausted):
        pagerank(
            _engine(small_rmat, resilience=kill),
            iterations=10,
            checkpoint=CheckpointSession(mgr, "pr-run"),
        )

    resumed = pagerank(
        _engine(small_rmat),
        iterations=10,
        checkpoint=CheckpointSession(mgr, "pr-run", resume=True),
    )
    assert resumed.iterations == baseline.iterations
    assert resumed.last_delta == baseline.last_delta
    assert np.array_equal(resumed.ranks, baseline.ranks)


def test_cc_killed_and_resumed_matches_uninterrupted(tmp_path, small_symmetric):
    baseline = connected_components(_engine(small_symmetric))

    mgr = CheckpointManager(tmp_path)
    kill = ResiliencePolicy(
        max_retries=0, fault_plan=FaultPlan.from_spec("worker_crash@1")
    )
    with pytest.raises(RetryExhausted):
        connected_components(
            _engine(small_symmetric, resilience=kill),
            checkpoint=CheckpointSession(mgr, "cc-run"),
        )

    resumed = connected_components(
        _engine(small_symmetric),
        checkpoint=CheckpointSession(mgr, "cc-run", resume=True),
    )
    assert resumed.iterations == baseline.iterations
    assert np.array_equal(resumed.labels, baseline.labels)


def test_resume_over_corrupted_tail_recomputes_and_matches(tmp_path, small_rmat):
    """A corrupted newest checkpoint costs one iteration, not correctness."""
    baseline = pagerank(_engine(small_rmat), iterations=6)

    corrupting = CheckpointManager(
        tmp_path, fault_plan=FaultPlan.from_spec("corrupt_checkpoint@6")
    )
    pagerank(
        _engine(small_rmat),
        iterations=6,
        checkpoint=CheckpointSession(corrupting, "pr"),
    )

    clean = CheckpointManager(tmp_path)
    resumed = pagerank(
        _engine(small_rmat),
        iterations=6,
        checkpoint=CheckpointSession(clean, "pr", resume=True),
    )
    assert np.array_equal(resumed.ranks, baseline.ranks)
    assert resumed.iterations == baseline.iterations
    # exactly one iteration (the corrupted one) was re-executed
    assert resumed.stats.num_iterations == 1
