"""Checkpoint store repair properties under adversarial byte damage.

Property: flipping or truncating *any* byte of a sharded generation is
either repaired bit-identically (a donor generation or a healthy replica
holds the same bytes) or detected as a typed corruption — never a silent
wrong answer.  Damage positions are drawn by hypothesis so the framing
(magic, header, payload, manifest) is attacked everywhere, not just at
the tail byte the fault injector flips.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointCorruptError
from repro.resilience import CheckpointManager, ShardedStore, make_store

pytestmark = pytest.mark.faultinjection


def _arrays(seed):
    rng = np.random.default_rng(seed)
    return {
        "ranks": rng.random(24),
        "labels": rng.integers(0, 100, size=24).astype(np.int64),
    }


def _assert_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        assert a[key].dtype == b[key].dtype
        assert np.array_equal(a[key], b[key])


def _damage(path: Path, position: float, truncate: bool) -> None:
    """Flip one byte at a relative position, or cut the file there."""
    raw = bytearray(path.read_bytes())
    index = min(int(position * len(raw)), len(raw) - 1)
    if truncate:
        path.write_bytes(bytes(raw[:index]))
    else:
        raw[index] ^= 0xFF
        path.write_bytes(bytes(raw))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shard_index=st.integers(0, 1),
    position=st.floats(0.0, 1.0, allow_nan=False),
    truncate=st.booleans(),
)
def test_sharded_store_repairs_any_torn_shard_from_previous_generation(
    tmp_path_factory, seed, shard_index, position, truncate
):
    tmp = tmp_path_factory.mktemp("sharded")
    store = ShardedStore(tmp)
    arrays = _arrays(seed)
    store.save("run", 1, arrays)
    store.save("run", 2, arrays)  # unchanged: every shard has a donor
    gen = store.generation_dir("run", 2)
    shard = sorted(gen.glob("*.shard"))[shard_index]
    _damage(shard, position, truncate)
    _assert_equal(store.load("run", 2), arrays)  # repaired bit-identically
    assert store.verify("run", 2)  # and rewritten clean in place


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    position=st.floats(0.0, 1.0, allow_nan=False),
    truncate=st.booleans(),
)
def test_sharded_manifest_damage_falls_back_to_previous_generation(
    tmp_path_factory, seed, position, truncate
):
    tmp = tmp_path_factory.mktemp("manifest")
    mgr = CheckpointManager(store=ShardedStore(tmp))
    old = _arrays(seed)
    new = {k: v + 1 for k, v in old.items()}
    mgr.save("run", 1, old)
    mgr.save("run", 2, new)
    _damage(mgr.store.generation_dir("run", 2) / "manifest.mf", position, truncate)
    with pytest.raises(CheckpointCorruptError):
        mgr.load("run", 2)
    step, arrays = mgr.load_latest("run")
    assert step == 1
    _assert_equal(arrays, old)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    victims=st.sets(st.integers(0, 2), min_size=1, max_size=2),
    position=st.floats(0.0, 1.0, allow_nan=False),
    truncate=st.booleans(),
)
def test_replicated_store_repairs_from_any_healthy_replica(
    tmp_path_factory, seed, victims, position, truncate
):
    tmp = tmp_path_factory.mktemp("replicated")
    store = make_store("replicated:replicas=3", tmp)
    arrays = _arrays(seed)
    store.save("run", 1, arrays)
    for victim in victims:  # damage a strict minority-to-majority, never all
        child = store.replicas[victim]
        target = child.generation_dir("run", 1) / "manifest.mf"
        _damage(target, position, truncate)
    _assert_equal(store.load("run", 1), arrays)
    # the read re-synced every damaged replica from the healthy copy
    for child in store.replicas:
        assert child.verify("run", 1)
