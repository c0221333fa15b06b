"""Shared experiment plumbing: store caching and single-run simulation.

Every figure driver boils down to "run algorithm A on graph G under
system/layout policy X and report the simulated time".  The harness
centralises that, caching built :class:`GraphStore` layouts (the expensive
step) across experiment points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..algorithms.registry import ALGORITHMS
from ..baselines.systems import SYSTEMS, build_cost_model, build_engine
from ..core.engine import Engine
from ..core.options import EngineOptions
from ..core.stats import RunStats, stats_of
from ..graph import datasets
from ..graph.edgelist import EdgeList
from ..layout.store import GraphStore
from ..machine.cost import CostModel, LayoutProfile, profile_store
from ..machine.spec import MachineSpec

__all__ = [
    "StoreCache",
    "Workbench",
    "force_atomics",
    "set_default_resilience_factory",
    "simulated_seconds",
]

#: default stand-in scale for benchmark runs; tests use smaller values.
DEFAULT_SCALE = 1.0

#: process-wide default for :attr:`Workbench.resilience_factory` — the
#: bench conftest points this at a seeded fault plan (via the
#: ``REPRO_BENCH_FAULT_PLAN`` / ``REPRO_BENCH_FAULT_SEED`` environment
#: variables) so every figure driver runs its engines under fault
#: injection without each driver knowing about it.
_DEFAULT_RESILIENCE_FACTORY = None


def set_default_resilience_factory(factory) -> None:
    """Install (or clear, with ``None``) the process-wide policy factory.

    ``factory`` is a zero-argument callable returning a fresh
    :class:`~repro.resilience.ResiliencePolicy` — fresh because fault
    events are one-shot, so each engine needs its own re-armed plan.
    """
    global _DEFAULT_RESILIENCE_FACTORY
    _DEFAULT_RESILIENCE_FACTORY = factory


def force_atomics(stats: RunStats) -> RunStats:
    """Copy of ``stats`` with every edge map flagged as using atomics.

    Used to report the "+a" curves of Figures 5/6 without re-running: the
    atomics choice changes cost, not semantics (§III.C).
    """
    return RunStats(
        edge_maps=[replace(s, uses_atomics=True) for s in stats.edge_maps],
        vertex_maps=list(stats.vertex_maps),
    )


def simulated_seconds(
    spec, result: object, model, profile: LayoutProfile, *, atomics: str = "auto"
) -> float:
    """Price one finished run of ``spec``: what its recorded statistics
    cost on ``model``'s machine.  ``atomics="on"`` reports the "+a" curve."""
    stats = stats_of(result)
    if atomics == "on":
        stats = force_atomics(stats)
    return model.run_time_seconds(stats, profile, update_scale=spec.update_scale)


class StoreCache:
    """Cache of built layouts keyed by (graph, partitions, balance, order)."""

    def __init__(self) -> None:
        self._graphs: dict[str, EdgeList] = {}
        self._stores: dict[tuple, GraphStore] = {}
        self._profiles: dict[tuple, LayoutProfile] = {}

    def graph(self, name: str, *, scale: float = DEFAULT_SCALE) -> EdgeList:
        """Load (and memoise) a dataset stand-in."""
        key = f"{name}@{scale}"
        if key not in self._graphs:
            self._graphs[key] = datasets.load(name, scale)
        return self._graphs[key]

    def store(
        self,
        edges: EdgeList,
        *,
        num_partitions: int,
        balance: str = "edges",
        edge_order: str = "source",
    ) -> GraphStore:
        """Build (and memoise) a store for the given layout parameters."""
        key = (id(edges), num_partitions, balance, edge_order)
        if key not in self._stores:
            self._stores[key] = GraphStore.build(
                edges,
                num_partitions=num_partitions,
                balance=balance,
                edge_order=edge_order,
            )
        return self._stores[key]

    def profile(self, store: GraphStore, *, num_threads: int = 48) -> LayoutProfile:
        """Compute (and memoise) the cost-model profile of a store."""
        key = (id(store), num_threads)
        if key not in self._profiles:
            self._profiles[key] = profile_store(store, num_threads=num_threads)
        return self._profiles[key]


@dataclass
class Workbench:
    """One experiment context: a graph, a modelled machine, a store cache."""

    edges: EdgeList
    machine: MachineSpec
    num_threads: int = 48
    cache: StoreCache | None = None
    #: zero-argument callable producing a fresh ResiliencePolicy (or
    #: ``None``) for every engine this workbench builds.  Defaults to the
    #: process-wide factory installed by the bench conftest, letting CI
    #: re-run the whole figure suite under injected faults.
    resilience_factory: object = None
    #: execution-backend spec for every engine this workbench builds
    #: (``None`` keeps :class:`EngineOptions`' default, i.e.
    #: ``$REPRO_BACKEND`` or serial).
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = StoreCache()
        if self.resilience_factory is None:
            self.resilience_factory = _DEFAULT_RESILIENCE_FACTORY

    def _resilience(self):
        """A fresh supervision policy for one engine build, if configured."""
        factory = self.resilience_factory
        return factory() if callable(factory) else None

    # ------------------------------------------------------------------
    @staticmethod
    def for_dataset(
        name: str,
        *,
        scale: float = DEFAULT_SCALE,
        num_threads: int = 48,
        cache: StoreCache | None = None,
    ) -> "Workbench":
        """Workbench over a dataset stand-in with a matched scaled machine."""
        cache = cache or StoreCache()
        edges = cache.graph(name, scale=scale)
        machine = MachineSpec().scaled_for(edges.num_vertices)
        return Workbench(
            edges=edges, machine=machine, num_threads=num_threads, cache=cache
        )

    # ------------------------------------------------------------------
    def run_layout(
        self,
        algo_code: str,
        *,
        num_partitions: int,
        forced_layout: str | None,
        edge_order: str = "source",
        atomics: str = "auto",
        numa_aware: bool = True,
    ) -> float:
        """Simulated seconds of one algorithm under a pinned layout.

        ``atomics`` is ``"auto"`` (the engine's rule), or ``"on"`` to
        report the "+a" curve.
        """
        spec = ALGORITHMS[algo_code]
        store = self.cache.store(
            self.edges,
            num_partitions=num_partitions,
            balance=spec.balance,
            edge_order=edge_order,
        )
        options = EngineOptions(
            num_threads=self.num_threads,
            forced_layout=forced_layout,
            backend=self.backend,
        )
        engine = Engine(store, options, resilience=self._resilience())
        model = CostModel(
            self.machine, num_threads=self.num_threads, numa_aware=numa_aware
        )
        profile = self.cache.profile(store, num_threads=self.num_threads)
        return simulated_seconds(spec, spec.run(engine), model, profile, atomics=atomics)

    def run_grid(
        self,
        algo_code: str,
        *,
        num_partitions: int,
        num_stripes: int | None = None,
        memory_budget: int | None = None,
    ) -> float:
        """Simulated seconds of one algorithm streamed from an on-disk grid.

        Builds the grid in a self-cleaning temporary directory, attaches
        it to the engine, and prices the run through the cost model's
        grid branch (``max(compute, I/O)``) — the out-of-core point past
        the in-RAM capacity wall in Figure 5's sweep.
        """
        import tempfile

        from ..layout.grid import GridStore

        spec = ALGORITHMS[algo_code]
        store = self.cache.store(
            self.edges,
            num_partitions=num_partitions,
            balance=spec.balance,
        )
        options = EngineOptions(num_threads=self.num_threads, backend=self.backend)
        engine = Engine(store, options, resilience=self._resilience())
        with tempfile.TemporaryDirectory(prefix="repro-grid-bench-") as tmp:
            engine.attach_grid(GridStore.build(
                self.edges, tmp,
                num_stripes=num_stripes, budget=memory_budget,
            ))
            result = spec.run(engine)
        model = CostModel(self.machine, num_threads=self.num_threads)
        profile = self.cache.profile(store, num_threads=self.num_threads)
        return simulated_seconds(spec, result, model, profile)

    def run_system(self, system_key: str, algo_code: str, *, default_partitions: int = 384) -> float:
        """Simulated seconds of one algorithm under one comparison system."""
        config = SYSTEMS[system_key]
        spec = ALGORITHMS[algo_code]
        p = config.num_partitions or default_partitions
        p = min(p, max(self.edges.num_vertices, 1))
        balance = config.balance or spec.balance
        store = self.cache.store(self.edges, num_partitions=p, balance=balance)
        engine = build_engine(
            config,
            self.edges,
            num_threads=self.num_threads,
            default_partitions=default_partitions,
            algorithm_balance=spec.balance,
            store=store,
            resilience=self._resilience(),
        )
        model = build_cost_model(
            config, self.machine, num_threads=self.num_threads
        )
        profile = self.cache.profile(store, num_threads=self.num_threads)
        return simulated_seconds(spec, spec.run(engine), model, profile)
