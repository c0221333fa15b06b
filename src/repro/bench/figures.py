"""Experiment drivers: one function per table/figure of the paper.

Each driver returns structured data (and can render itself as text via
:mod:`repro.bench.report`); the pytest-benchmark files under
``benchmarks/`` are thin wrappers that execute these drivers, write their
tables to ``benchmarks/out/`` and assert the headline shape claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..algorithms import registry as algos
from ..algorithms.bfs import bfs
from ..algorithms.registry import default_source
from ..baselines.systems import SYSTEMS
from ..core.engine import Engine
from ..core.options import EngineOptions
from ..graph import datasets
from ..graph.properties import graph_stats
from ..layout.coo import PartitionedCOO
from ..machine.spec import MachineSpec
from ..memsim.cache import llc_config
from ..memsim.reuse import ReuseHistogram
from ..memsim.simcache import SimulationCache
from ..memsim.trace import next_array_trace, partition_edge_traces
from ..partition.by_destination import partition_by_destination
from ..partition.replication import replication_factor
from ..partition.storage import StorageModel
from .harness import StoreCache, Workbench, simulated_seconds
from .report import render_table

__all__ = [
    "table1_graphs",
    "table2_algorithms",
    "fig2_reuse_distance",
    "fig3_replication",
    "fig4_storage",
    "fig5_partition_scaling",
    "fig6_small_graphs",
    "fig7_sort_order",
    "fig8_mpki",
    "fig9_comparison",
    "fig10_scalability",
    "ablation_thresholds",
    "ablation_balance",
]

#: paper's Figure 5 partition sweep (Twitter, 48 threads).
FIG5_PARTITIONS = (4, 8, 24, 48, 96, 192, 384, 480)
#: Figure 3 replication sweep.
FIG3_PARTITIONS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 384)
#: Figure 2 reuse-distance sweep (paper's legend).
FIG2_PARTITIONS = (1, 4, 8, 24, 192, 384)


@dataclass
class Experiment:
    """Generic experiment output: metadata + a table."""

    name: str
    headers: list[str]
    rows: list[list[object]]
    notes: dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """ASCII rendering suitable for EXPERIMENTS.md."""
        text = render_table(self.headers, self.rows, title=self.name)
        if self.notes:
            notes = "\n".join(f"  {k}: {v}" for k, v in self.notes.items())
            text += "\n" + notes
        return text

    def column(self, header: str) -> list[object]:
        """Extract one column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


# ----------------------------------------------------------------------
# Tables I and II
# ----------------------------------------------------------------------
def table1_graphs(*, scale: float = 1.0, cache: StoreCache | None = None) -> Experiment:
    """Table I: characterisation of the evaluation graphs.

    Reports both the paper's true sizes and the stand-in sizes actually
    used by the execution experiments.
    """
    cache = cache or StoreCache()
    rows: list[list[object]] = []
    for name in datasets.names():
        spec = datasets.DATASETS[name]
        g = cache.graph(name, scale=scale)
        st = graph_stats(g)
        rows.append(
            [
                name,
                spec.paper_vertices,
                spec.paper_edges,
                "directed" if spec.directed else "undirected",
                st.num_vertices,
                st.num_edges,
                st.max_out_degree,
                round(st.mean_degree, 2),
            ]
        )
    return Experiment(
        name="Table I: graphs (paper size vs stand-in size)",
        headers=[
            "graph", "paper |V|", "paper |E|", "type",
            "standin |V|", "standin |E|", "max outdeg", "mean deg",
        ],
        rows=rows,
        notes={"scale": scale},
    )


def table2_algorithms() -> Experiment:
    """Table II: the eight algorithms and their paper classification."""
    rows = [
        [s.code, s.description, s.traversal, s.orientation[0].upper(), s.balance]
        for s in algos.ALGORITHMS.values()
    ]
    return Experiment(
        name="Table II: graph algorithms and their characteristics",
        headers=["code", "description", "edge traversal", "V/E", "balance"],
        rows=rows,
    )


# ----------------------------------------------------------------------
# Figure 2: reuse distance of next-frontier updates (PRDelta / Twitter)
# ----------------------------------------------------------------------
def fig2_reuse_distance(
    *,
    dataset: str = "twitter",
    scale: float = 0.5,
    partition_counts=FIG2_PARTITIONS,
    max_accesses: int = 400_000,
    cache: StoreCache | None = None,
) -> tuple[Experiment, dict[int, ReuseHistogram]]:
    """Reuse-distance distributions of next-array updates vs partitions.

    The paper measures updates to the next frontier during PRDelta's dense
    iterations with a destination-partitioned, CSR-ordered layout; we
    generate exactly that address stream per partition count and compute
    exact LRU stack distances.  Long traces are truncated to
    ``max_accesses`` (a contiguous prefix, generated without
    materialising the cut tail) to bound the analysis.
    """
    cache = cache or StoreCache()
    edges = cache.graph(dataset, scale=scale)
    sim = SimulationCache()
    hists: dict[int, ReuseHistogram] = {}
    rows = []
    for p in partition_counts:
        vp = partition_by_destination(edges, p)
        coo = PartitionedCOO.build(edges, vp, edge_order="source")
        trace = next_array_trace(coo, max_accesses=max_accesses)
        h = sim.histogram(trace)
        hists[p] = h
        rows.append(
            [
                p,
                h.total_accesses,
                h.max_distance(),
                h.percentile(50),
                h.percentile(90),
                h.percentile(99),
            ]
        )
    exp = Experiment(
        name="Figure 2: reuse distance of next-frontier updates (dense PRDelta)",
        headers=["partitions", "accesses", "max dist", "p50", "p90", "p99"],
        rows=rows,
        notes={"dataset": dataset, "scale": scale, "trace cap": max_accesses},
    )
    return exp, hists


# ----------------------------------------------------------------------
# Figure 3: replication factor vs number of partitions
# ----------------------------------------------------------------------
def fig3_replication(
    *,
    graphs=("twitter", "friendster", "orkut", "usaroad", "livejournal", "powerlaw"),
    partition_counts=FIG3_PARTITIONS,
    scale: float = 1.0,
    cache: StoreCache | None = None,
) -> Experiment:
    """Replication factor r(p) for the paper's six Figure 3 graphs."""
    cache = cache or StoreCache()
    rows = []
    worst: dict[str, float] = {}
    for p in partition_counts:
        row: list[object] = [p]
        for name in graphs:
            g = cache.graph(name, scale=scale)
            vp = partition_by_destination(g, min(p, g.num_vertices))
            row.append(round(replication_factor(g, vp), 2))
            worst[name] = round(g.num_edges / max(g.num_vertices, 1), 1)
        rows.append(row)
    return Experiment(
        name="Figure 3: replication factor vs number of partitions",
        headers=["partitions", *graphs],
        rows=rows,
        notes={"worst case |E|/|V|": worst, "scale": scale},
    )


# ----------------------------------------------------------------------
# Figure 4: graph storage size vs number of partitions
# ----------------------------------------------------------------------
def fig4_storage(
    *,
    graphs=("twitter", "friendster"),
    partition_counts=FIG3_PARTITIONS,
    scale: float = 1.0,
    paper_scale: bool = True,
    cache: StoreCache | None = None,
) -> Experiment:
    """Storage of CSR / pruned CSR / CSC / COO vs partition count.

    The replication factor is measured on the stand-in; the byte formulas
    of §II.E are then evaluated at the paper's true |V|, |E| (GiB axis of
    Figure 4) when ``paper_scale`` is set, or at stand-in sizes otherwise.
    """
    cache = cache or StoreCache()
    rows = []
    for name in graphs:
        g = cache.graph(name, scale=scale)
        spec = datasets.DATASETS[name]
        if paper_scale:
            model = StorageModel(spec.paper_vertices, spec.paper_edges)
        else:
            model = StorageModel(g.num_vertices, g.num_edges)
        for p in partition_counts:
            vp = partition_by_destination(g, min(p, g.num_vertices))
            r = replication_factor(g, vp)
            rows.append(
                [
                    name,
                    p,
                    round(r, 2),
                    round(StorageModel.to_gib(model.csr_dense_bytes(p)), 3),
                    round(StorageModel.to_gib(model.csr_pruned_bytes(r)), 3),
                    round(StorageModel.to_gib(model.csc_bytes()), 3),
                    round(StorageModel.to_gib(model.coo_bytes()), 3),
                ]
            )
    return Experiment(
        name="Figure 4: graph storage size [GiB] vs number of partitions",
        headers=["graph", "partitions", "r(p)", "CSR", "CSR pruned", "CSC", "COO"],
        rows=rows,
        notes={"sizes at": "paper scale" if paper_scale else "stand-in scale"},
    )


# ----------------------------------------------------------------------
# Figures 5 / 6: execution time vs partitions for each layout
# ----------------------------------------------------------------------
def _csr_fits_memory(
    dataset: str, num_partitions: int, machine: MachineSpec
) -> bool:
    """Does the paper-scale partitioned CSR build fit the modelled DRAM?

    Models the §IV.A memory wall: the system stores partitioned CSR *and*
    CSC plus double-buffered per-vertex data replicated with the
    partitions.  Twitter-class graphs exhaust 256 GiB quickly.
    """
    from ..errors import CapacityError

    spec = datasets.DATASETS[dataset]
    model = StorageModel(spec.paper_vertices, spec.paper_edges)
    graph_bytes = 2 * model.csr_dense_bytes(num_partitions)
    vertex_data = num_partitions * spec.paper_vertices * 16
    try:
        model.assert_fits(
            graph_bytes + vertex_data,
            MachineSpec().dram_bytes,
            what=f"{dataset} partitioned CSR at P={num_partitions}",
        )
    except CapacityError:
        return False
    return True


def fig5_partition_scaling(
    *,
    dataset: str = "twitter",
    scale: float = 1.0,
    algorithms=("BC", "CC", "PR", "BFS", "PRDelta", "SPMV", "BF", "BP"),
    partition_counts=FIG5_PARTITIONS,
    num_threads: int = 48,
    enforce_memory_wall: bool = True,
    cache: StoreCache | None = None,
) -> dict[str, Experiment]:
    """Execution time vs partitions for CSR+a / CSC+na / COO+na / COO+a.

    One experiment per algorithm, exactly Figure 5's panels.  CSR points
    whose paper-scale storage exceeds the modelled 256 GiB are reported as
    out-of-memory (the paper could evaluate at most 48 partitions); at
    those points a fifth ``CSR+grid`` column prices the out-of-core grid
    fallback (``max(compute, I/O)``), extending the sweep past the wall
    the paper died at."""
    bench = Workbench.for_dataset(
        dataset, scale=scale, num_threads=num_threads, cache=cache
    )
    out: dict[str, Experiment] = {}
    for code in algorithms:
        rows = []
        for p in partition_counts:
            p_eff = min(p, bench.edges.num_vertices)
            csr_ok = (not enforce_memory_wall) or _csr_fits_memory(
                dataset, p, bench.machine
            )
            csr_t = (
                bench.run_layout(code, num_partitions=p_eff, forced_layout="pcsr", atomics="on")
                if csr_ok
                else None
            )
            csc_t = bench.run_layout(code, num_partitions=p_eff, forced_layout="csc")
            coo_na = bench.run_layout(code, num_partitions=p_eff, forced_layout="coo")
            coo_a = bench.run_layout(
                code, num_partitions=p_eff, forced_layout="coo", atomics="on"
            )
            grid_t = (
                bench.run_grid(code, num_partitions=p_eff)
                if not csr_ok
                else None
            )
            if p_eff < num_threads:
                # below one partition per thread the engine already uses
                # atomics; the +na curve is undefined, as in the paper.
                coo_na = None
            rows.append([p, csr_t, csc_t, coo_na, coo_a, grid_t])
        out[code] = Experiment(
            name=f"Figure 5 ({code}): execution time [s] vs partitions, {dataset}",
            headers=["partitions", "CSR+a", "CSC+na", "COO+na", "COO+a", "CSR+grid"],
            rows=rows,
            notes={"threads": num_threads, "scale": scale},
        )
    return out


def fig6_small_graphs(
    *,
    graphs=("livejournal", "yahoo_mem"),
    algorithms=("BFS", "BP"),
    partition_counts=(4, 8, 24, 48, 96, 192, 384, 768),
    scale: float = 1.0,
    num_threads: int = 48,
    cache: StoreCache | None = None,
) -> dict[tuple[str, str], Experiment]:
    """Figure 6: unrestricted-memory emulation on the two small graphs.

    CSR can be scaled far beyond 48 partitions here; edge-oriented
    algorithms (BP) hit diminishing returns and slow down from vertex
    replication, vertex-oriented ones (BFS) stay flat."""
    cache = cache or StoreCache()
    out: dict[tuple[str, str], Experiment] = {}
    for name in graphs:
        bench = Workbench.for_dataset(
            name, scale=scale, num_threads=num_threads, cache=cache
        )
        for code in algorithms:
            rows = []
            for p in partition_counts:
                p_eff = min(p, bench.edges.num_vertices)
                csr_a = bench.run_layout(
                    code, num_partitions=p_eff, forced_layout="pcsr", atomics="on"
                )
                csr_na = bench.run_layout(
                    code, num_partitions=p_eff, forced_layout="pcsr"
                )
                csc_na = bench.run_layout(code, num_partitions=p_eff, forced_layout="csc")
                coo_na = bench.run_layout(code, num_partitions=p_eff, forced_layout="coo")
                coo_a = bench.run_layout(
                    code, num_partitions=p_eff, forced_layout="coo", atomics="on"
                )
                if p_eff < num_threads:
                    coo_na = None
                    csr_na = None
                rows.append([p, csr_a, csr_na, csc_na, coo_na, coo_a])
            out[(name, code)] = Experiment(
                name=f"Figure 6 ({name} {code}): execution time [s] vs partitions",
                headers=["partitions", "CSR+a", "CSR+na", "CSC+na", "COO+na", "COO+a"],
                rows=rows,
                notes={"threads": num_threads, "scale": scale},
            )
    return out


# ----------------------------------------------------------------------
# Figure 7: sort order of COO edges
# ----------------------------------------------------------------------
def fig7_sort_order(
    *,
    graphs=("twitter", "friendster"),
    algorithms=("CC", "PR", "PRDelta", "SPMV", "BP"),
    num_partitions: int = 384,
    scale: float = 1.0,
    num_threads: int = 48,
    cache: StoreCache | None = None,
) -> dict[str, Experiment]:
    """Relative execution time of source / Hilbert / destination edge order.

    Normalised to source (CSR) order, as in Figure 7.  The Hilbert order's
    locality advantage enters the simulation through the reduced working
    set each edge block touches (measured from the layout)."""
    cache = cache or StoreCache()
    out: dict[str, Experiment] = {}
    for name in graphs:
        bench = Workbench.for_dataset(
            name, scale=scale, num_threads=num_threads, cache=cache
        )
        rows = []
        for code in algorithms:
            times = {}
            for order in ("source", "hilbert", "destination"):
                times[order] = bench.run_layout(
                    code,
                    num_partitions=min(num_partitions, bench.edges.num_vertices),
                    forced_layout="coo",
                    edge_order=order,
                )
            base = times["source"]
            rows.append(
                [
                    code,
                    1.0,
                    round(times["hilbert"] / base, 4),
                    round(times["destination"] / base, 4),
                ]
            )
        out[name] = Experiment(
            name=f"Figure 7 ({name}): relative execution time by edge sort order",
            headers=["algorithm", "source", "hilbert", "destination"],
            rows=rows,
            notes={"partitions": num_partitions, "threads": num_threads},
        )
    return out


# ----------------------------------------------------------------------
# Figure 8: MPKI of Hilbert-sorted COO
# ----------------------------------------------------------------------
#: modelled instructions per examined edge (streaming + update work).
INSTRUCTIONS_PER_EDGE = 12


def _bfs_round_major_traces(coo: PartitionedCOO, levels: np.ndarray) -> list[np.ndarray]:
    """Per-partition interleaved traces of a BFS run.

    Within a partition, edges are processed in BFS-round order (the round
    of their source); unreached sources never fire."""
    from ..memsim.trace import interleave_traces, vertex_lines

    offset = (coo.num_vertices * 8) // 64 + 1
    out = []
    for i in range(coo.num_partitions):
        src_ids, dst_ids = coo.partition_edges(i)
        lv = levels[src_ids]
        live = lv >= 0
        src_ids, dst_ids, lv = src_ids[live], dst_ids[live], lv[live]
        order = np.argsort(lv, kind="stable")
        out.append(
            interleave_traces(
                vertex_lines(src_ids[order]),
                vertex_lines(dst_ids[order]),
                b_offset=offset,
            )
        )
    return out


def fig8_mpki(
    *,
    graphs=("twitter", "friendster"),
    algorithms=("PR", "BF", "BFS"),
    partition_counts=(4, 8, 12, 24, 48, 96),
    scale: float = 0.5,
    edge_order: str = "source",
    cache: StoreCache | None = None,
) -> dict[str, Experiment]:
    """Last-level-cache MPKI vs partitions, via exact cache simulation.

    Per partition count, each partition's interleaved (source-read,
    destination-write) stream is replayed through the scaled per-socket
    LLC; misses are summed and divided by the modelled instruction count.
    PR/BF use dense traversals; BFS uses its active-edge trace
    (vertex-oriented: partitioning does not reduce its misses, as the
    paper observes).  A :class:`SimulationCache` deduplicates the replays
    content-addressably — PR and BF stream byte-identical traces, so the
    second algorithm's simulation is a lookup.

    Two documented deviations from the paper's exact setup (see
    EXPERIMENTS.md): the default trace order is CSR (source) rather than
    Hilbert — at stand-in scale the Hilbert curve's windows already fit
    the scaled cache, leaving partitioning no headroom (order effects are
    Figure 7's subject) — and the sweep stops at 96 partitions because the
    stand-in's lower |E|/|V| makes source-replication cold misses
    dominate ~20x sooner than at the paper's scale."""
    cache = cache or StoreCache()
    # bound must cover one algorithm's per-partition traces at the largest
    # partition count, or entries are evicted before the next algorithm
    # re-reads them.
    sim = SimulationCache(max_entries=2 * max(partition_counts, default=1) + 8)
    out: dict[str, Experiment] = {}
    for name in graphs:
        edges = cache.graph(name, scale=scale)
        machine = MachineSpec().scaled_for(edges.num_vertices)
        # BFS expansion rounds: the level of each vertex orders its
        # out-edges' processing round.
        store1 = cache.store(edges, num_partitions=1)
        eng = Engine(store1, EngineOptions(num_threads=48))
        levels = bfs(eng, default_source(eng)).level
        rows = []
        for p in partition_counts:
            vp = partition_by_destination(edges, min(p, edges.num_vertices))
            coo = PartitionedCOO.build(edges, vp, edge_order=edge_order)
            cfg = llc_config(machine, sharing_cores=1)
            row: list[object] = [p]
            for code in algorithms:
                misses = 0
                accesses = 0
                if code == "BFS":
                    # Round-major trace: each partition (pinned to its
                    # core) processes its active edges level by level, so
                    # every edge is touched once over the whole run —
                    # a cold-miss-bound pattern partitioning cannot
                    # improve, exactly the paper's BFS observation.
                    traces = _bfs_round_major_traces(coo, levels)
                else:
                    traces = partition_edge_traces(coo)
                for tr in traces:
                    res = sim.simulate(tr, cfg)
                    misses += res.misses
                    accesses += res.accesses
                instructions = (accesses // 2) * INSTRUCTIONS_PER_EDGE
                row.append(
                    round(misses / max(instructions, 1) * 1000.0, 2)
                )
            rows.append(row)
        out[name] = Experiment(
            name=f"Figure 8 ({name}): LLC MPKI of partitioned COO vs partitions",
            headers=["partitions", *algorithms],
            rows=rows,
            notes={
                "scale": scale,
                "instructions/edge": INSTRUCTIONS_PER_EDGE,
                "edge order": edge_order,
            },
        )
    return out


# ----------------------------------------------------------------------
# Figure 9: comparison against Ligra / Polymer / GraphGrind-v1
# ----------------------------------------------------------------------
def fig9_comparison(
    *,
    graphs=datasets.names(),
    algorithms=("BC", "CC", "PR", "BFS", "PRDelta", "SPMV", "BF", "BP"),
    scale: float = 1.0,
    num_threads: int = 48,
    gg2_partitions: int = 384,
    cache: StoreCache | None = None,
) -> dict[str, Experiment]:
    """Simulated execution time of all four systems, per graph."""
    cache = cache or StoreCache()
    out: dict[str, Experiment] = {}
    for name in graphs:
        bench = Workbench.for_dataset(
            name, scale=scale, num_threads=num_threads, cache=cache
        )
        rows = []
        for code in algorithms:
            row: list[object] = [code]
            for sys_key in SYSTEMS:
                if sys_key == "polymer" and code == "BC":
                    # Polymer provides no BC implementation (§IV.E).
                    row.append(None)
                    continue
                row.append(
                    bench.run_system(sys_key, code, default_partitions=gg2_partitions)
                )
            rows.append(row)
        out[name] = Experiment(
            name=f"Figure 9 ({name}): execution time [s] per system",
            headers=["algorithm", "L", "P", "GG-v1", "GG-v2"],
            rows=rows,
            notes={"threads": num_threads, "GG-v2 partitions": gg2_partitions},
        )
    return out


# ----------------------------------------------------------------------
# Figure 10: parallel scalability (PRDelta)
# ----------------------------------------------------------------------
def fig10_scalability(
    *,
    graphs=("twitter", "friendster"),
    algorithm: str = "PRDelta",
    thread_counts=(4, 8, 16, 24, 48),
    scale: float = 1.0,
    gg2_partitions: int = 384,
    cache: StoreCache | None = None,
) -> dict[str, Experiment]:
    """Execution time vs thread count for all four systems."""
    cache = cache or StoreCache()
    out: dict[str, Experiment] = {}
    for name in graphs:
        rows = []
        for t in thread_counts:
            bench = Workbench.for_dataset(
                name, scale=scale, num_threads=t, cache=cache
            )
            row: list[object] = [t]
            for sys_key in SYSTEMS:
                row.append(
                    bench.run_system(sys_key, algorithm, default_partitions=gg2_partitions)
                )
            rows.append(row)
        out[name] = Experiment(
            name=f"Figure 10 ({name}): {algorithm} time [s] vs threads",
            headers=["threads", "L", "P", "GG-v1", "GG-v2"],
            rows=rows,
            notes={"GG-v2 partitions": gg2_partitions},
        )
    return out


# ----------------------------------------------------------------------
# Ablations (DESIGN.md §design choices)
# ----------------------------------------------------------------------
def ablation_thresholds(
    *,
    dataset: str = "twitter",
    algorithms=("PRDelta", "BFS", "CC"),
    scale: float = 1.0,
    num_threads: int = 48,
    num_partitions: int = 384,
    cache: StoreCache | None = None,
) -> Experiment:
    """Three-way vs two-way frontier classification (medium class ablated)."""
    from ..frontier.density import DensityThresholds

    bench = Workbench.for_dataset(
        dataset, scale=scale, num_threads=num_threads, cache=cache
    )
    from ..algorithms.registry import ALGORITHMS
    from ..machine.cost import CostModel

    rows = []
    for code in algorithms:
        spec = ALGORITHMS[code]
        store = bench.cache.store(
            bench.edges, num_partitions=num_partitions, balance=spec.balance
        )
        profile = bench.cache.profile(store, num_threads=num_threads)
        model = CostModel(bench.machine, num_threads=num_threads)
        times = {}
        for label, th in [
            ("three-way", DensityThresholds(sparse=1 / 20, medium=1 / 2)),
            ("two-way dense=coo", DensityThresholds(sparse=1 / 20, medium=1 / 20)),
            ("two-way dense=csc", DensityThresholds(sparse=1 / 20, medium=float("inf"))),
        ]:
            eng = Engine(store, EngineOptions(num_threads=num_threads, thresholds=th))
            times[label] = simulated_seconds(spec, spec.run(eng), model, profile)
        rows.append(
            [code, times["three-way"], times["two-way dense=coo"], times["two-way dense=csc"]]
        )
    return Experiment(
        name="Ablation: three-way vs two-way frontier classification [s]",
        headers=["algorithm", "three-way", "two-way (no medium, COO)", "two-way (no dense, CSC)"],
        rows=rows,
        notes={"dataset": dataset, "partitions": num_partitions},
    )


def ablation_balance(
    *,
    dataset: str = "twitter",
    algorithms=("PR", "BFS", "BF", "CC"),
    scale: float = 1.0,
    num_threads: int = 48,
    num_partitions: int = 384,
    cache: StoreCache | None = None,
) -> Experiment:
    """Edge-balanced vs vertex-balanced partitioning (§III.D)."""
    from ..algorithms.registry import ALGORITHMS
    from ..machine.cost import CostModel

    bench = Workbench.for_dataset(
        dataset, scale=scale, num_threads=num_threads, cache=cache
    )
    model = CostModel(bench.machine, num_threads=num_threads)
    rows = []
    for code in algorithms:
        spec = ALGORITHMS[code]
        times = {}
        for balance in ("edges", "vertices"):
            store = bench.cache.store(
                bench.edges, num_partitions=num_partitions, balance=balance
            )
            profile = bench.cache.profile(store, num_threads=num_threads)
            eng = Engine(store, EngineOptions(num_threads=num_threads))
            times[balance] = simulated_seconds(spec, spec.run(eng), model, profile)
        rows.append([code, spec.orientation, times["edges"], times["vertices"]])
    return Experiment(
        name="Ablation: edge- vs vertex-balanced partitions [s]",
        headers=["algorithm", "orientation", "edge-balanced", "vertex-balanced"],
        rows=rows,
        notes={"dataset": dataset, "partitions": num_partitions},
    )
