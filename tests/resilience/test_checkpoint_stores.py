"""Pluggable checkpoint store backends: atomicity, integrity, repair.

Covers the byte-level contract of every backend in ``STORE_KINDS`` —
the original single-file :class:`LocalDirStore`, the
:class:`ShardedStore` with its atomic-manifest commit point and
torn-shard repair, the :class:`ReplicatedStore` with quorum writes and
re-sync on read, and (via the shared parametrized contract tests) the
:class:`~repro.resilience.remote.RemoteStore` — plus the
:class:`CheckpointManager` retention satellite (``keep_last``) and the
``--store`` option table.
"""

import numpy as np
import pytest

from repro.errors import CheckpointCorruptError, CheckpointError
from repro.resilience import (
    STORE_KINDS,
    CheckpointManager,
    LocalDirStore,
    ReplicatedStore,
    ShardedStore,
    make_store,
)


def _arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "ranks": rng.random(32),
        "labels": np.arange(32, dtype=np.int64),
        "flags": rng.integers(0, 2, size=32).astype(bool),
    }


def _assert_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        assert a[key].dtype == b[key].dtype
        assert np.array_equal(a[key], b[key])


# ----------------------------------------------------------------------
# contract shared by every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", STORE_KINDS)
def test_roundtrip_bit_identical(tmp_path, kind):
    store = make_store(kind, tmp_path)
    arrays = _arrays()
    store.save("run", 3, arrays)
    _assert_equal(store.load("run", 3), arrays)
    assert store.kind == kind


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_steps_and_names(tmp_path, kind):
    store = make_store(kind, tmp_path)
    for step in (5, 1, 3):
        store.save("alpha", step, _arrays(step))
    store.save("beta", 2, _arrays())
    assert store.steps("alpha") == [1, 3, 5]
    assert store.steps("missing") == []
    assert store.names() == ["alpha", "beta"]


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_delete_is_idempotent(tmp_path, kind):
    store = make_store(kind, tmp_path)
    store.save("run", 1, _arrays())
    store.delete("run", 1)
    store.delete("run", 1)  # a second delete must not raise
    assert store.steps("run") == []
    with pytest.raises(CheckpointError):
        store.load("run", 1)


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_verify_and_size(tmp_path, kind):
    store = make_store(kind, tmp_path)
    store.save("run", 1, _arrays())
    assert store.verify("run", 1)
    assert not store.verify("run", 9)
    size = store.size_bytes("run", 1)
    assert size is not None and size > 0


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_corrupt_generation_detected(tmp_path, kind):
    store = make_store(kind, tmp_path)
    store.save("run", 1, _arrays())
    store.corrupt("run", 1)
    assert not store.verify("run", 1)
    with pytest.raises(CheckpointCorruptError):
        store.load("run", 1)


def test_make_store_unknown_kind_rejected(tmp_path):
    with pytest.raises(ValueError):
        make_store("cloud", tmp_path)
    with pytest.raises(ValueError):
        make_store("replicated:replicas=0", tmp_path)


def test_make_store_applies_remote_spec_options(tmp_path):
    store = make_store("remote:seed=7:deadline=12:attempts=4", tmp_path)
    assert store.kind == "remote"
    assert store.net.seed == 7
    assert store.client.deadline_s == 12.0
    assert store.client.max_attempts == 4
    with pytest.raises(ValueError):
        make_store("remote:seed=notanint", tmp_path)


def test_make_store_merges_spec_faults_with_run_plan(tmp_path):
    from repro.resilience import NET_FAULT_KINDS, FaultPlan

    run_plan = FaultPlan.from_spec("worker_crash@2")
    store = make_store(
        "remote:faults=net_timeout@0+stale_read@4", tmp_path, fault_plan=run_plan
    )
    merged = store.net.fault_plan
    kinds = [ev.kind for ev in merged.events]
    assert kinds == ["worker_crash", "net_timeout", "stale_read"]
    # the event objects are shared, so firing one via the simulator is
    # visible to the engine-side plan (one-shot semantics hold globally)
    assert merged.take(NET_FAULT_KINDS, 0) == "net_timeout"
    assert run_plan.events[0] in merged.events


def test_no_tmp_files_left_behind(tmp_path):
    for kind in STORE_KINDS:
        store = make_store(kind, tmp_path / kind)
        store.save("run", 1, _arrays())
    assert not list(tmp_path.rglob("*.tmp"))


# ----------------------------------------------------------------------
# ShardedStore: the manifest is the commit point; torn shards repair
# from an older generation that recorded the same digest
# ----------------------------------------------------------------------
def test_sharded_manifest_is_the_commit_point(tmp_path):
    store = ShardedStore(tmp_path)
    store.save("run", 1, _arrays())
    (store.generation_dir("run", 1) / "manifest.mf").unlink()
    # shards still on disk, but the generation no longer exists
    assert store.steps("run") == []
    assert store.names() == []
    with pytest.raises(CheckpointError):
        store.load("run", 1)


def test_sharded_torn_shard_repaired_from_previous_generation(tmp_path):
    store = ShardedStore(tmp_path)
    arrays = _arrays()
    store.save("run", 1, arrays)
    arrays2 = dict(arrays, ranks=arrays["ranks"] * 2.0)  # "flags"/"labels" unchanged
    store.save("run", 2, arrays2)
    # corrupt_shard tears the first key in sorted order: "flags", which
    # generation 1's manifest records with the identical CRC
    store.corrupt_shard("run", 2)
    _assert_equal(store.load("run", 2), arrays2)
    # the repair rewrote the shard in place, so the generation is clean now
    assert store.verify("run", 2)


def test_sharded_torn_shard_without_donor_is_corrupt(tmp_path):
    store = ShardedStore(tmp_path)
    store.save("run", 1, _arrays())
    store.corrupt_shard("run", 1)  # no older generation to repair from
    with pytest.raises(CheckpointCorruptError):
        store.load("run", 1)
    assert not store.verify("run", 1)


def test_sharded_changed_shard_cannot_repair_from_stale_donor(tmp_path):
    """A donor generation with *different* bytes must never be used."""
    store = ShardedStore(tmp_path)
    arrays1 = _arrays(1)
    arrays2 = {k: v + 1 if v.dtype != bool else ~v for k, v in arrays1.items()}
    store.save("run", 1, arrays1)
    store.save("run", 2, arrays2)
    store.corrupt_shard("run", 2)  # every shard changed between generations
    with pytest.raises(CheckpointCorruptError):
        store.load("run", 2)


# ----------------------------------------------------------------------
# ReplicatedStore: quorum writes, first-valid reads, re-sync on read
# ----------------------------------------------------------------------
def test_replicated_needs_replicas():
    with pytest.raises(ValueError):
        ReplicatedStore([])


def test_replicated_quorum_bounds(tmp_path):
    children = [ShardedStore(tmp_path / f"r{i}") for i in range(3)]
    assert ReplicatedStore(children).write_quorum == 2  # majority of 3
    with pytest.raises(ValueError):
        ReplicatedStore(children, write_quorum=4)
    with pytest.raises(ValueError):
        ReplicatedStore(children, write_quorum=0)


def test_replicated_lost_replica_resynced_on_read(tmp_path):
    store = make_store("replicated:replicas=3", tmp_path)
    arrays = _arrays()
    store.save("run", 1, arrays)
    store.lose_replica("run", 1, replica=0)
    assert store.replicas[0].steps("run") == []
    _assert_equal(store.load("run", 1), arrays)  # healthy replica serves
    # ...and the read re-synced the lost copy
    assert store.replicas[0].steps("run") == [1]
    assert store.replicas[0].verify("run", 1)


def test_replicated_corrupt_replica_repaired_on_read(tmp_path):
    store = make_store("replicated", tmp_path)
    arrays = _arrays()
    store.save("run", 1, arrays)
    store.replicas[0].corrupt("run", 1)
    _assert_equal(store.load("run", 1), arrays)
    assert store.replicas[0].verify("run", 1)


def test_replicated_steps_are_the_union(tmp_path):
    store = make_store("replicated", tmp_path)
    store.save("run", 1, _arrays())
    store.save("run", 2, _arrays(2))
    store.lose_replica("run", 1, replica=0)
    store.lose_replica("run", 2, replica=1)
    assert store.steps("run") == [1, 2]


# ----------------------------------------------------------------------
# CheckpointManager over each backend, and the retention satellite
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", STORE_KINDS)
def test_manager_fallback_over_corrupt_tail(tmp_path, kind):
    mgr = CheckpointManager(store=make_store(kind, tmp_path))
    for step in (1, 2, 3):
        mgr.save("run", step, {"x": np.array([step])})
    mgr.store.corrupt("run", 3)
    step, arrays = mgr.load_latest("run")
    assert step == 2
    assert arrays["x"][0] == 2


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_manager_keep_last_retention(tmp_path, kind):
    mgr = CheckpointManager(store=make_store(kind, tmp_path), keep_last=2)
    for step in range(1, 6):
        mgr.save("run", step, {"x": np.array([step])})
    assert mgr.steps("run") == [4, 5]


def test_manager_prune_returns_dropped_steps(tmp_path):
    mgr = CheckpointManager(tmp_path)  # unbounded retention by default
    for step in (1, 2, 3, 4):
        mgr.save("run", step, {"x": np.array([step])})
    assert mgr.steps("run") == [1, 2, 3, 4]
    assert mgr.prune("run", keep_last=1) == [1, 2, 3]
    assert mgr.steps("run") == [4]
    assert mgr.prune("run") == []  # manager retention is None: no-op


def test_manager_rejects_bad_retention(tmp_path):
    with pytest.raises(ValueError):
        CheckpointManager(tmp_path, keep_last=0)
    with pytest.raises(ValueError):
        CheckpointManager(tmp_path).prune("run", keep_last=0)


def test_manager_requires_directory_or_store():
    with pytest.raises(ValueError):
        CheckpointManager()


def test_manager_directory_back_compat(tmp_path):
    """Positional-directory construction keeps the original file format."""
    mgr = CheckpointManager(tmp_path)
    assert isinstance(mgr.store, LocalDirStore)
    path = mgr.save("run", 7, {"x": np.arange(4)})
    assert path == tmp_path / "run.it00000007.ckpt"
    assert path.exists()
