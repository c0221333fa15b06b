"""Shared fixtures: small deterministic graphs, stores and engines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import Engine, EngineOptions
from repro.graph import generators as gen
from repro.graph.edgelist import EdgeList
from repro.layout import GraphStore
from repro.resilience import PhaseJournal

#: ``pytest tests/test_lattice.py --hypothesis-profile=lattice``: the
#: heavier, randomly seeded sampling of the configuration lattice (tier-1
#: draws a small derandomized set).
settings.register_profile("lattice", max_examples=400, deadline=None, print_blob=True)


@pytest.fixture
def paper_graph() -> EdgeList:
    """The 6-vertex, 14-edge example of the paper's Figure 1."""
    return gen.paper_example()


@pytest.fixture
def small_rmat() -> EdgeList:
    """A ~250-vertex, ~1200-edge skewed directed graph."""
    return gen.rmat(8, 6.0, seed=3)


@pytest.fixture
def small_symmetric(small_rmat) -> EdgeList:
    """Symmetrised version of the small R-MAT graph."""
    return small_rmat.symmetrized()


@pytest.fixture
def road() -> EdgeList:
    """A 12x12 road lattice (symmetric, uniform degree, high diameter)."""
    return gen.road_grid(12, seed=7)


@pytest.fixture
def small_store(small_rmat) -> GraphStore:
    """Eight-partition store of the small R-MAT graph."""
    return GraphStore.build(small_rmat, num_partitions=8)


@pytest.fixture
def engine(small_store) -> Engine:
    """Engine over the small store with 4 simulated threads."""
    return Engine(small_store, EngineOptions(num_threads=4))


@pytest.fixture
def rng() -> np.random.Generator:
    """Seeded RNG for tests needing randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def journal_calls(monkeypatch) -> list[tuple]:
    """A spy on the journal's writers; per call, in order: ``(method, phase,
    key, commits held before it)``.  ``key`` is the ``(partition, block)``
    unit of a commit, an execution or a replay, the ``(lo, hi)`` of a
    dropped range and ``()`` for an invalidation."""
    calls = []

    def spy(name, method):
        def call(journal, *args):
            key = (args[0].partition, args[1]) if name == "commit" else args
            calls.append((name, journal.phase, key, journal.num_commits()))
            return method(journal, *args)

        monkeypatch.setattr(PhaseJournal, name, call)

    for name in ("note_execution", "commit", "note_replay", "drop_range", "invalidate"):
        spy(name, getattr(PhaseJournal, name))
    return calls
