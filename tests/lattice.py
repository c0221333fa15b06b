"""One oracle, one harness: correctness over the configuration lattice.

Destination partitioning hands every partition task a disjoint write
range, so any partition count, layout, visit order, thread schedule or
out-of-core stream must commit the same state.  This module decides that
promise for one point of the lattice at a time:

* a :class:`Config` names one value per axis — algorithm, graph,
  partition count, forced and sparse layout, edge order, partition visit
  order, task grain, forced bitmap, backend spec, grid (stripes, stripe
  mode, budget, handed in or reached by the policy's memory budget),
  supervision (a fault plan, a memory budget) and a checkpoint store
  with kill-and-resume;
* :func:`oracle` runs the serial engine at P = 1, Algorithm 2's own
  layout choice, ``source`` order and no supervision;
* :func:`observe` runs a configuration and records what a caller can
  see of it: the result arrays, every ``EdgeMapStats`` row, the guard,
  grid, budget and journal counters — and holds every edge-map and task
  it runs to the two lines of the write contract (:func:`contract_lines`);
* :func:`check` holds the result arrays to the oracle under the per-axis
  contract, holds a *mechanism twin* (the same point but for task grain,
  forced bitmap, backend spec or the prefetch shim) to the whole
  observation, checks the laws on every engine it ran, and checks that
  nothing outlives the run.

A failure names the axis values it ran and prints a :func:`replay_line`.
"""

from __future__ import annotations

import atexit
import dataclasses
import gc
import glob
import itertools
import os
import shutil
import tempfile
import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest

from repro._types import VID_DTYPE
from repro.algorithms import registry
from repro.core import Engine, EngineOptions, plan
from repro.core import engine as engine_module
from repro.core.budget import parse_memory_budget
from repro.core.ops import EdgeOperator, state_arrays, vertex_length
from repro.errors import RetryExhausted
from repro.graph import generators as gen
from repro.layout import GraphStore
from repro.layout.grid import GridStore
from repro.resilience import (
    CheckpointManager,
    CheckpointSession,
    FaultPlan,
    ResiliencePolicy,
    Watchdog,
    make_store,
)

#: the lattice's graphs, ``family:seed``, and the fixtures older tests pin.
GRAPHS = {
    **{f"rmat:{seed}": partial(gen.rmat, 7, 8.0, seed=seed) for seed in range(4)},
    **{f"road:{seed}": partial(gen.road_grid, 9, seed=seed) for seed in range(4)},
    "paper": gen.paper_example,
    "small_rmat": partial(gen.rmat, 8, 6.0, seed=3),
    "small_symmetric": lambda: gen.rmat(8, 6.0, seed=3).symmetrized(),
    "road12": partial(gen.road_grid, 12, seed=7),
    "tiny_rmat": partial(gen.rmat, 7, 6.0, seed=3),
}
LATTICE_GRAPHS = [name for name in GRAPHS if ":" in name]
BACKENDS = ("serial", "serial:prefetch=2", "threads:workers=1", "threads:workers=2",
            "threads:workers=4")
#: the task grains: runs of one, a few partitions, the shipped target.
GRAINS = (0, 200, None)
#: simulated threads of every engine (COO atomics and the watchdog's slots).
THREADS = 4
#: retries of a supervised run: enough for every fault of a drawn plan.
RETRIES = 8


@dataclass(frozen=True)
class Config:
    """One point of the configuration lattice."""

    code: str
    graph: str = "rmat:0"
    partitions: int = 8
    forced_layout: str | None = None
    sparse_layout: str = "csr"
    edge_order: str = "source"
    partition_order: str = "forward"
    order_seed: int = 0
    #: ``plan.TASK_EDGES`` for the run; ``None`` keeps the shipped target.
    grain: int | None = None
    #: full frontiers forced down the masked path (``_frontier_filter``).
    bitmap: bool = False
    backend: str = "serial"
    #: an on-disk grid of this many stripes; ``None`` runs in RAM.
    stripes: int | None = None
    stripe_mode: str = "vertex"
    #: the grid's memory budget.
    budget: str = "16K"
    #: reach the grid through the policy's memory budget (the degradation
    #: ladder) instead of handing it in; without ``stripes`` the policy
    #: derives the stripe count.
    spill: bool = False
    #: a ``ResiliencePolicy`` even with no fault to recover from.
    supervised: bool = False
    #: a ``FaultPlan`` spec the supervised run recovers from.
    faults: str = ""
    #: checkpoint every iteration to a store of this kind.
    store: str | None = None
    #: first kill the run with this fault (a ``FaultPlan`` spec, no
    #: retries), then resume it from the store.
    kill: str | None = None

    @property
    def policy(self) -> bool:
        return self.supervised or bool(self.faults) or self.spill or self.store is not None

    def __repr__(self) -> str:
        changed = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if f.name == "code" or getattr(self, f.name) != f.default
        ]
        return f"Config({', '.join(changed)})"


@dataclass(frozen=True)
class Observation:
    """What a caller can see of one run.  The compared fields are the
    whole observation of mechanism twins; the rest is for pinned tests."""

    #: ``(name, dtype, shape, bytes)`` of every result array.
    arrays: tuple
    #: every field of every ``EdgeMapStats`` row (BC: forward, then backward).
    rows: tuple
    #: ``(guards_skipped, guard_invocations)``.
    guards: tuple
    #: ``(name, value)`` of every grid counter, its stripe count and stored
    #: bytes, and the budget's counters; ``None`` in RAM.
    grid: tuple | None
    #: ``(replays, reexecutions)``; ``None`` unsupervised.
    journal: tuple | None
    result: object = field(compare=False, repr=False)
    #: the store's partition count when the run ended (the halving rung).
    partitions: int = field(compare=False)
    log: tuple = field(compare=False, repr=False)
    backend: object = field(compare=False, repr=False)
    #: every checkpoint step of the run's name, each verified.
    steps: tuple = field(compare=False, repr=False)


@cache
def graph(name: str):
    return GRAPHS[name]()


@cache
def _store(name: str, partitions: int, edge_order: str, balance: str) -> GraphStore:
    return GraphStore.build(
        graph(name), num_partitions=partitions, edge_order=edge_order, balance=balance
    )


@cache
def oracle(name: str, code: str) -> dict[str, np.ndarray]:
    """The reference result arrays of ``code`` on graph ``name``: serial,
    P = 1, Algorithm 2's own layout choice, ``source`` order, no
    supervision."""
    store = GraphStore.build(graph(name), num_partitions=1)
    with Engine(store, EngineOptions(num_threads=THREADS, backend="serial")) as engine:
        return registry.result_arrays(registry.get(code).run(engine))


def _edge_maps(result) -> list:
    if hasattr(result, "forward_stats"):  # BC: the backward pass has its own engine
        return result.forward_stats.edge_maps + result.backward_stats.edge_maps
    return result.stats.edge_maps


def stats_rows(result) -> tuple:
    """Every field of every ``EdgeMapStats`` row ``result`` recorded."""
    return tuple(
        tuple(v.tolist() if isinstance(v, np.ndarray) else v for v in dataclasses.astuple(row))
        for row in _edge_maps(result)
    )


def _always_masked(frontier) -> dict:
    """``_frontier_filter`` as it was before full frontiers went without a bitmap."""
    return {"bitmap": frontier.as_bitmap()}


# ----------------------------------------------------------------------
# running one configuration
# ----------------------------------------------------------------------
def _policy(config: Config, faults: str, retries: int) -> ResiliencePolicy:
    slow = any(kind in faults for kind in ("stall", "slow_io"))
    return ResiliencePolicy(
        max_retries=retries,
        fault_plan=FaultPlan.from_spec(faults) if faults else None,
        watchdog=Watchdog() if slow else None,
        memory_budget=config.budget if config.spill else None,
        grid_stripes=config.stripes if config.spill else None,
        grid_stripe_mode=config.stripe_mode,
    )


def _engine(config: Config, directory: Path, faults: str, retries: int) -> Engine:
    spec = registry.get(config.code)
    # balanced by the algorithm's own criterion, as the CLI builds it
    store = _store(config.graph, config.partitions, config.edge_order, spec.balance)
    options = EngineOptions(
        num_threads=THREADS,
        forced_layout=config.forced_layout,
        sparse_layout=config.sparse_layout,
        partition_order=config.partition_order,
        partition_order_seed=config.order_seed,
        backend=config.backend,
    )
    policy = _policy(config, faults, retries) if config.policy else None
    grid = None
    if config.stripes is not None and not config.spill:
        grid = GridStore.build(
            graph(config.graph), directory, num_stripes=config.stripes,
            stripe_mode=config.stripe_mode, budget=parse_memory_budget(config.budget),
            fault_plan=policy.fault_plan if policy else None,
        )
    return Engine(store, options, resilience=policy, grid=grid)


def _count_grid_attempts(patch) -> dict[GridStore, list[dict]]:
    """Per grid, one entry per planned attempt at a grid phase: the blocks
    the grid holds (its non-empty blocks, counted here), those the plan
    skipped, those the grid served (a read that raised served none), and
    the journal's replays."""
    attempts: dict[GridStore, list[dict]] = {}
    plan_grid, read_block, fold = Engine._plan_grid, GridStore.read_block, Engine._fold

    def planned(engine, frontier):
        phase = plan_grid(engine, frontier)
        grid, journal = engine.grid, engine.journal
        cells = itertools.product(range(grid.num_stripes), repeat=2)
        scheduled = sum(grid.block_edges(i, j) > 0 for i, j in cells)
        attempts.setdefault(grid, []).append(dict(
            scheduled=scheduled, skipped=scheduled - len(phase.tasks), served=0,
            replays=journal.replays if journal else 0, done=False,
        ))
        return phase

    def served(grid, i, j):
        block = read_block(grid, i, j)
        attempts[grid][-1]["served"] += 1
        return block

    def folded(engine, phase, frontier, density, records):
        if phase.layout == "grid":
            attempt = attempts[engine.grid][-1]
            journal = engine.journal
            attempt["replayed"] = (journal.replays if journal else 0) - attempt["replays"]
            attempt["done"] = True
        return fold(engine, phase, frontier, density, records)

    patch.setattr(Engine, "_plan_grid", planned)
    patch.setattr(GridStore, "read_block", served)
    patch.setattr(Engine, "_fold", folded)
    return attempts


def _changed(before: np.ndarray, after) -> np.ndarray:
    """The leading-axis indices at which ``after`` differs from ``before``,
    NaN equal to NaN; every index when the attribute was rebound to
    something of another shape or dtype."""
    rebound = not isinstance(after, np.ndarray)
    if rebound or (after.shape, after.dtype) != (before.shape, before.dtype):
        return np.arange(before.shape[0] if before.ndim else 1)
    neq = after != before
    if before.dtype.kind in "fc":
        neq &= ~(np.isnan(after) & np.isnan(before))
    return np.flatnonzero(neq.any(axis=tuple(range(1, neq.ndim))))


def contract_lines(patch) -> None:
    """Hold every edge-map and task to the write contract's two lines.

    * Effects: the operator state arrays an ``edge_map`` of a declared
      operator changed are among those it declares (``writes``).
    * Write set: a task changes every vertex-length state array only inside
      its destination range ``[lo, hi)``.

    A phase the pool runs concurrently is left out of the second line: its
    blocks write in place together, and its mechanism twin covers it."""
    edge_map, execute = Engine.edge_map, Engine._execute

    def mapped(engine, frontier, op):
        before = {k: v.copy() for k, v in state_arrays(op).items()}
        nxt = edge_map(engine, frontier, op)
        declared = type(op).writes
        if declared is not None:
            after = state_arrays(op)
            changed = {k for k in before.keys() | after.keys()
                       if k not in before or _changed(before[k], after.get(k)).size}
            stray = sorted(changed - set(declared))
            assert not stray, (
                f"{type(op).__name__} changed {stray}, outside the arrays it "
                f"declares it writes ({sorted(declared)})"
            )
        return nxt

    def executed(engine, plan, arrays, op, tasks):
        if engine._phase_concurrent and plan.layout != "grid":
            return execute(engine, plan, arrays, op, tasks)
        n, records = engine.num_vertices, []
        for task in tasks:
            before = {k: v.copy() for k, v in state_arrays(op).items() if vertex_length(v, n)}
            records += execute(engine, plan, arrays, op, [task])
            after = state_arrays(op)
            for name, old in before.items():
                rows = _changed(old, after.get(name))
                out = rows[(rows < task.lo) | (rows >= task.hi)]
                assert not out.size, (
                    f"{type(op).__name__}.{name}: the task over [{task.lo}, {task.hi}) "
                    f"wrote index {int(out[0])} outside it"
                )
        return records

    patch.setattr(Engine, "edge_map", mapped)
    patch.setattr(Engine, "_execute", executed)


class LastWriterDemoOp(EdgeOperator):
    """Intentionally order-dependent: ``state[src] = dst``, last writer wins.

    Sources are *not* partitioned — the same source occurs in many
    partitions' edge batches — so whichever partition runs last owns the
    final value.  It declares ``state`` as if written at ``dst``: the lie
    the write-set line names.
    """

    writes = ("state",)

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        self.state[src] = dst.astype(self.state.dtype)
        return np.empty(0, dtype=VID_DTYPE)


def _laws(engine: Engine, attempts: list[dict], result=None) -> None:
    """The conservation laws every run keeps (a killed one has no result)."""
    for row in _edge_maps(result) if result is not None else ():
        if row.partition_examined is not None:
            assert int(row.partition_examined.sum()) == row.examined_edges, (
                f"sum of partition_examined != examined_edges in {row}"
            )
    assert engine.backend_stats.fallbacks == 0, "the pool fell back to serial"
    grid = engine.grid
    if grid is None:
        return
    stats, budget, limit = grid.stats, grid.budget, grid.budget.limit_bytes
    if limit is not None:
        assert budget.high_water_bytes <= limit, f"high water over budget: {budget}"
        sizes = {(int(b["i"]), int(b["j"])): int(b["bytes"]) for b in grid.manifest["blocks"]}
        unpinned = [n for key, n in sizes.items() if key not in budget.pinned and n <= limit]
        assert stats.pinned_bytes + max(unpinned, default=0) <= limit, (
            f"pinned {stats.pinned_bytes} B leave no room for a {max(unpinned)} B block"
        )
    # Every block a completed attempt scheduled was skipped, replayed from
    # the journal, or served once (read, or a cache hit); an attempt a
    # fault cut short served only some.  Summed over the run:
    #   reads + hits + skips = sum over completed attempts (scheduled - replayed)
    #                        + sum over faulted attempts (served + skipped)
    done = [a for a in attempts if a["done"]]
    for a in done:
        assert a["skipped"] + a["served"] + a["replayed"] == a["scheduled"], (
            f"a grid phase left blocks unaccounted: {a}"
        )
    cut = [a for a in attempts if not a["done"]]
    want = sum(a["scheduled"] - a["replayed"] for a in done) + sum(
        a["served"] + a["skipped"] for a in cut
    )
    got = stats.block_reads + stats.cache_hits + stats.blocks_skipped
    assert got == want, f"reads + hits + skips = {got}, scheduled blocks say {want}"
    assert stats.blocks_skipped == sum(a["skipped"] for a in attempts)


class NotKilled(AssertionError):
    """A ``kill`` never fired: a partition-scoped one names a partition
    that starts no task of its phase."""


def observe(config: Config) -> Observation:
    """Run ``config`` — killed and resumed when it names a ``kill`` — and
    return what a caller can see of the (last) run; the laws are checked
    on every engine, and every engine is closed."""
    spec = registry.get(config.code)
    with ExitStack() as stack:
        patch = stack.enter_context(pytest.MonkeyPatch.context())
        if config.grain is not None:
            patch.setattr(plan, "TASK_EDGES", config.grain)
        if config.bitmap:
            patch.setattr(engine_module, "_frontier_filter", _always_masked)
        attempts = _count_grid_attempts(patch)
        contract_lines(patch)
        # temporary directories (the spill rung's ``repro-*`` ones too) go
        # where the residue check looks, and no other process writes
        patch.setattr(tempfile, "tempdir", _scratch())
        directory = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="lattice-")))
        session = None
        if config.store is not None:
            manager = CheckpointManager(store=make_store(config.store, directory / "ck"))
            session = partial(CheckpointSession, manager, config.code)
        if config.kill is not None:
            with _engine(config, directory / "killed", config.kill, 0) as killed:
                try:
                    spec.run(killed, checkpoint=session(resume=False))
                    raise NotKilled(f"the run finished before {config.kill} fired")
                except RetryExhausted:
                    pass
                _laws(killed, attempts.get(killed.grid, []))
            assert manager.steps(config.code), "the killed run left no checkpoint"
        with _engine(config, directory / "run", config.faults, RETRIES) as engine:
            kwargs = {"checkpoint": session(resume=True)} if session else {}
            result = spec.run(engine, **kwargs)
            _laws(engine, attempts.get(engine.grid, []), result)
            grid, journal = engine.grid, engine.journal
            steps = ()
            if session is not None:
                steps = tuple(manager.steps(config.code))
                assert all(manager.verify(config.code, step) for step in steps)
            return Observation(
                arrays=tuple(
                    (name, a.dtype.str, a.shape, a.tobytes())
                    for name, a in registry.result_arrays(result).items()
                ),
                rows=stats_rows(result),
                guards=(engine.guards_skipped, engine.guard_invocations),
                grid=grid and tuple(sorted({
                    **vars(grid.stats), "num_stripes": grid.num_stripes,
                    "evictions": grid.budget.evictions, "admissions": grid.budget.admissions,
                    "high_water_bytes": grid.budget.high_water_bytes,
                    "limit_bytes": grid.budget.limit_bytes, "total_bytes": grid.total_bytes(),
                }.items())),
                journal=journal and (journal.replays, journal.reexecutions),
                result=result,
                partitions=engine.store.num_partitions,
                log=tuple(engine.resilience_log),
                backend=engine.backend_stats,
                steps=steps,
            )


# ----------------------------------------------------------------------
# the contract
# ----------------------------------------------------------------------
def _valid_bfs_tree(edges, parent: np.ndarray, level: np.ndarray) -> None:
    """Every reached non-root ``v`` has an in-edge from ``parent[v]``,
    one level above it."""
    v = np.flatnonzero((level > 0))
    u = parent[v].astype(np.int64)
    n = edges.num_vertices
    keys = edges.src.astype(np.int64) * n + edges.dst
    assert np.isin(u * n + v, keys).all(), "a BFS parent is not an in-neighbour"
    assert np.array_equal(level[u], level[v] - 1), "a BFS parent is not one level up"


def _match_oracle(config: Config, obs: Observation) -> None:
    want = oracle(config.graph, config.code)
    got = registry.result_arrays(obs.result)
    assert got.keys() == want.keys()
    loose = config.edge_order == "hilbert"
    for name, a in want.items():
        b = got[name]
        where = f"{config.code} field {name!r} diverged from the oracle"
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        if not loose or (a.dtype.kind != "f" and name != "parent"):
            assert a.tobytes() == b.tobytes(), where
        elif name == "parent":
            _valid_bfs_tree(graph(config.graph), b, got["level"])
        else:
            np.testing.assert_allclose(b, a, rtol=1e-9, atol=0, err_msg=where)


@cache
def _scratch() -> str:
    """This process's temporary directory for the runs it observes."""
    path = tempfile.mkdtemp(prefix="lattice-")
    atexit.register(shutil.rmtree, path, True)
    return path


def _residue() -> tuple:
    children = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as fh:
            children.update(fh.read().split())
    return (
        set(threading.enumerate()),
        children,
        set(os.listdir("/proc/self/fd")),
        set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set(),
        set(glob.glob(os.path.join(_scratch(), "repro-*"))),
    )


def _no_residue(before: tuple) -> None:
    """Once every engine is closed and collected: no new live thread, child
    process, open file descriptor, ``/dev/shm`` entry or ``repro-*`` temp dir."""
    after = _residue()
    if any(now - then for now, then in zip(after, before)):
        gc.collect()  # a cycle may still hold an engine; its finalizers run here
        after = _residue()
    names = ("threads", "child processes", "open fds", "/dev/shm entries", "repro-* temp dirs")
    for name, now, then in zip(names, after, before):
        assert not now - then, f"left behind: {name} {sorted(now - then)}"


def _same(obs: Observation, other: Observation) -> None:
    """Mechanism twins: the whole observation, trajectories included."""
    for f in dataclasses.fields(Observation):
        a, b = getattr(obs, f.name), getattr(other, f.name)
        if not f.compare or a == b:
            continue
        if f.name in ("arrays", "rows"):
            k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            raise AssertionError(
                f"the mechanism twin's {f.name} differ first at entry {k} of {len(a)} "
                f"(twin: {len(b)})"
            )
        raise AssertionError(f"the mechanism twin's {f.name} differ: {a} != {b}")


def replay_line(config: Config, twin: Config | None = None) -> str:
    """The one line that re-runs a failed sample."""
    args = ", ".join(repr(c) for c in (config, twin) if c is not None)
    return f'PYTHONPATH=src:. python -c "from tests.lattice import replay, Config; replay({args})"'


def check(config: Config, twin: Config | None = None) -> Observation:
    """Decide one sample: ``config`` against the oracle under the contract,
    ``twin`` (differing only on mechanism axes) against ``config`` in its
    whole observation, the laws on every engine, and no residue.  Returns
    ``config``'s observation."""
    before = _residue()
    try:
        obs = observe(config)
        _match_oracle(config, obs)
        if config.kill is None:
            _PHASES[config] = len(obs.rows)
        else:
            assert len(obs.rows) < phases(dataclasses.replace(config, kill=None)), (
                "the resumed run started over"
            )
        if twin is not None:
            _same(obs, observe(twin))
        _no_residue(before)
    except Exception as exc:
        what = exc if isinstance(exc, AssertionError) else f"{type(exc).__name__}: {exc}"
        raise AssertionError(f"{what}\nreplay: {replay_line(config, twin)}") from exc
    return obs


#: the replay line's entry point.
replay = check


#: the edge-map count of every configuration observed uninterrupted.
_PHASES: dict[Config, int] = {}


def phases(config: Config) -> int:
    """How many edge-maps ``config`` runs uninterrupted."""
    if config not in _PHASES:
        _PHASES[config] = len(observe(config).rows)
    return _PHASES[config]


def midway(config: Config, kind: str = "worker_crash") -> Config:
    """``config`` killed by a ``kind`` fault before the middle edge-map of
    its own run."""
    return dataclasses.replace(config, kill=f"{kind}@{phases(config) // 2}")
