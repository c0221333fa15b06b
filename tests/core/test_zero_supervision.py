"""Without a ``ResiliencePolicy`` no supervision code runs, on any path.

The tier-1 twin of the end-to-end benchmark's "supervision ran without
a policy" invariant: every traversal path is driven once with
``resilience=None`` while the operator's rollback hooks and every public
method of the journal, the watchdog, the fault plan and the supervisor
count their calls.  Every count must be zero.
"""

from __future__ import annotations

import inspect
from collections import Counter

import numpy as np
import pytest

from repro.core import Engine, EngineOptions
from repro.core.ops import EdgeOperator
from repro.frontier.frontier import Frontier
from repro.graph import generators as gen
from repro.layout.grid import GridStore
from repro.layout.store import GraphStore
from repro.resilience import FaultPlan, PhaseJournal, Watchdog
from repro.resilience.supervisor import Supervisor

CALLS: Counter = Counter()


class CountingOp(EdgeOperator):
    """PageRank-style accumulation whose rollback hooks count their calls."""

    writes = ("accum",)
    edge_local = True

    def __init__(self, contrib: np.ndarray, accum: np.ndarray) -> None:
        self.contrib = contrib
        self.accum = accum

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        np.add.at(self.accum, dst, self.contrib[src])
        return dst

    def snapshot(self):
        CALLS["op.snapshot"] += 1
        return super().snapshot()

    def restore(self, saved) -> None:
        CALLS["op.restore"] += 1
        super().restore(saved)


@pytest.fixture
def counted(monkeypatch):
    """Count calls into every supervision class for the test's duration."""
    CALLS.clear()
    for cls in (PhaseJournal, Watchdog, FaultPlan, Supervisor):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("__") or not inspect.isfunction(member):
                continue

            def counting(*args, _fn=member, _name=f"{cls.__name__}.{attr}", **kwargs):
                CALLS[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cls, attr, counting)
    return CALLS


#: path -> (EngineOptions overrides, frontier is the whole graph, layout recorded)
PATHS = {
    "sparse_csr": ({}, False, "csr"),
    "csc": ({"forced_layout": "csc"}, True, "csc"),
    "coo": ({"forced_layout": "coo"}, True, "coo"),
    "pcsr": ({"forced_layout": "pcsr"}, True, "pcsr"),
    "grid": ({}, True, "grid"),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_no_supervision_without_a_policy(path, counted, tmp_path):
    overrides, whole, layout = PATHS[path]
    edges = gen.rmat(10, 8, seed=5)
    n = edges.num_vertices
    store = GraphStore.build(edges, num_partitions=8)
    grid = GridStore.build(edges, tmp_path, num_stripes=4) if path == "grid" else None
    options = EngineOptions(num_threads=4, **{"backend": "serial", **overrides})
    # a handful of degree-1 vertices classify sparse; the hubs would not
    few = np.flatnonzero(store.out_degrees == 1)[:8]
    frontier = Frontier.full(n) if whole else Frontier(n, sparse=few)
    op = CountingOp(np.ones(n), np.zeros(n))
    with Engine(store, options, grid=grid) as engine:
        engine.edge_map(frontier, op)
        stats = engine.stats.edge_maps[-1]
        assert stats.layout == layout
        assert stats.active_edges > 0
        assert engine._supervisor is None
    assert dict(counted) == {}


def test_the_counters_do_see_a_supervised_engine(counted):
    """The zero above is not vacuous: a policy makes the same hooks fire."""
    from repro.resilience import ResiliencePolicy

    edges = gen.rmat(10, 8, seed=5)
    n = edges.num_vertices
    store = GraphStore.build(edges, num_partitions=8)
    options = EngineOptions(num_threads=4, backend="serial", forced_layout="coo")
    op = CountingOp(np.ones(n), np.zeros(n))
    with Engine(store, options, resilience=ResiliencePolicy(watchdog=Watchdog())) as engine:
        engine.edge_map(Frontier.full(n), op)
    assert counted["Supervisor.run_tasks"] == 1
    assert counted["PhaseJournal.commit"] == 8
    assert counted["Watchdog.observe"] == 8
    assert counted["op.snapshot"] == 1 + 8  # the phase, then each task
