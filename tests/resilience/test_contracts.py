"""The two contracts that cross the compute/resilience boundary.

Down: what each resumable loop hands its :class:`CheckpointSession` — the
array names and dtypes *are* the on-disk format, so a directory written
by an earlier commit resumes under a later one only while this table
holds.  Sideways: everything :class:`CheckpointManager` and the CLI ask
of a store is declared on :class:`CheckpointStore`, so every kind
answers every call and the documented fault-kind fallbacks need no
``hasattr``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.__main__ import main
from repro.algorithms import registry
from repro.core import Engine, EngineOptions
from repro.errors import CheckpointError, ValidationError
from repro.layout import GraphStore
from repro.resilience import (
    STORE_KINDS,
    CheckpointManager,
    CheckpointSession,
    CheckpointStore,
    FaultPlan,
    make_store,
)

#: per resumable algorithm: checkpoint array name -> dtype, literally.
CHECKPOINT_ARRAYS = {
    "BFS": {"parent": "int32", "level": "int64", "frontier": "int32"},
    "BF": {"dist": "float64", "frontier": "int32"},
    "CC": {"labels": "int32", "frontier": "int32"},
    "PR": {"ranks": "float64", "last_delta": "float64"},
    "PRDelta": {"p": "float64", "delta": "float64", "frontier": "int32"},
    "BP": {"belief": "float64", "last_delta": "float64"},
}


def test_the_table_covers_every_resumable_algorithm():
    assert sorted(CHECKPOINT_ARRAYS) == sorted(registry.resumable())


@pytest.mark.parametrize("code", sorted(CHECKPOINT_ARRAYS))
def test_loop_saves_exactly_the_tabled_arrays(tmp_path, small_rmat, small_symmetric, code):
    spec = registry.get(code)
    graph = small_symmetric if code == "CC" else small_rmat
    engine = Engine(GraphStore.build(graph, num_partitions=4), EngineOptions(num_threads=4))
    manager = CheckpointManager(tmp_path)
    result = spec.run_resumable(engine, CheckpointSession(manager, code))
    steps = manager.steps(code)
    assert steps == list(range(1, len(steps) + 1)) and steps, "one generation per iteration"
    n = graph.num_vertices
    for step in (steps[0], steps[-1]):
        saved = manager.load(code, step)
        assert {name: array.dtype.name for name, array in saved.items()} == CHECKPOINT_ARRAYS[code]
        for name, array in saved.items():
            # vertex-length state, but for the sparse frontier and the scalar
            want = {"frontier": array.shape, "last_delta": (1,)}.get(name, (n,))
            assert array.ndim == 1 and array.shape == want, name
    # the last generation is the result: resuming from it runs no phase
    resumed = spec.run_resumable(engine, CheckpointSession(manager, code, resume=True))
    assert resumed.stats.num_iterations == 0
    for name, value in registry.result_arrays(result).items():
        assert np.array_equal(getattr(resumed, name), value), name


# ----------------------------------------------------------------------
# the store contract, over every kind
# ----------------------------------------------------------------------
def _arrays(step):
    return {"a": np.arange(8) + step, "b": np.full(4, float(step))}


def _contract_methods():
    return sorted(
        name for name, member in vars(CheckpointStore).items()
        if inspect.isfunction(member) and not name.startswith("_")
    )


def test_the_contract_names_what_the_manager_and_cli_call():
    assert _contract_methods() == [
        "corrupt", "corrupt_shard", "delete", "load", "lose_replica", "names",
        "path_for", "pending_spill", "save", "size_bytes", "steps", "sync", "verify",
    ]
    assert {"kind", "directory", "events"} <= set(vars(CheckpointStore))


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_every_kind_answers_every_contract_call(tmp_path, kind):
    store = make_store(kind, tmp_path)
    assert isinstance(store, CheckpointStore) and store.kind == kind
    manager = CheckpointManager(store=store)
    assert manager.directory == store.directory
    assert store.directory == (None if kind == "replicated" else tmp_path)
    location = manager.save("run", 1, _arrays(1))
    assert location == store.path_for("run", 1)
    assert (location is not None and location.exists()) == (kind in ("local", "sharded"))
    if location is None:
        with pytest.raises(CheckpointError, match="no single on-disk path"):
            manager.path_for("run", 1)
    assert list(store.events) == [] and store.pending_spill() == []
    assert store.steps("run") == [1] and store.names() == ["run"] and store.verify("run", 1)
    assert store.size_bytes("run", 1) > 0
    store.delete("run", 1)
    assert store.steps("run") == []


#: fault kind at step 2 -> which generations of (1, 2) still load, per
#: store kind.  ``corrupt_shard`` tears shard "a" on the sharded kind
#: (step 1 cannot repair it: the array changed) and falls back to
#: corrupting the whole generation elsewhere; ``lost_replica`` drops one
#: replica's copy on the replicated kind (the other still serves it) and
#: falls back to deleting the generation elsewhere.
SURVIVORS = {
    "corrupt_checkpoint": {"local": [1], "sharded": [1], "replicated": [1], "remote": [1]},
    "corrupt_shard": {"local": [1], "sharded": [1], "replicated": [1], "remote": [1]},
    "lost_replica": {"local": [1], "sharded": [1], "replicated": [1, 2], "remote": [1]},
}


@pytest.mark.parametrize("kind", STORE_KINDS)
@pytest.mark.parametrize("fault", sorted(SURVIVORS))
def test_storage_faults_keep_their_documented_fallbacks(tmp_path, kind, fault):
    plan = FaultPlan.from_spec(f"{fault}@2")
    manager = CheckpointManager(store=make_store(kind, tmp_path), fault_plan=plan)
    for step in (1, 2):
        manager.save("run", step, _arrays(step))
    assert not plan.pending(), "the event fired on every kind"
    loadable = []
    for step in (1, 2):
        try:
            manager.load("run", step)
            loadable.append(step)
        except CheckpointError:  # corrupt, or gone
            pass
    assert loadable == SURVIVORS[fault][kind]
    assert manager.load_latest("run")[0] == loadable[-1]


@pytest.mark.parametrize("kind", [k for k in STORE_KINDS if k != "remote"])
def test_sync_on_a_store_without_a_spill_journal_is_a_validation_error(tmp_path, kind, capsys):
    make_store(kind, tmp_path).save("run", 1, _arrays(1))
    with pytest.raises(ValidationError, match="needs a remote store"):
        make_store(kind, tmp_path).sync()
    assert main(["checkpoints", "sync", "--checkpoint-dir", str(tmp_path), "--store", kind]) == 1
    assert f"needs a remote store, got --store '{kind}'" in capsys.readouterr().err


def test_sync_on_a_remote_store_drains_nothing_when_nothing_spilled(tmp_path):
    store = make_store("remote", tmp_path)
    store.save("run", 1, _arrays(1))
    assert store.sync() == []
