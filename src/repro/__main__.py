"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``run``
    Execute one of the Table II algorithms on a dataset stand-in (or a
    graph file) and report results plus simulated machine time::

        python -m repro run PR --dataset twitter --scale 0.5 --partitions 384
        python -m repro run BFS --graph my_edges.txt --threads 16
        python -m repro run PR --backend threads:workers=4

    ``--backend`` selects the execution backend (see
    :mod:`repro.core.backend`): ``serial`` (default) or
    ``threads[:workers=N][:strict=0|1]`` — the engine's task
    loop in blocks on a persistent thread pool, each block writing its
    destination ranges in place, bit-identical to serial.  Defaults to the
    ``REPRO_BACKEND`` environment variable when set.

``grid``
    Preprocess an edge list into an out-of-core P×P grid of CRC-framed
    block files, or inspect/verify an existing grid directory::

        python -m repro grid preprocess grids/tw --dataset twitter --stripes 8
        python -m repro grid verify grids/tw
        python -m repro run BFS --dataset twitter --grid grids/tw --memory-budget 64K

    ``run --memory-budget SIZE`` (without ``--grid``) instead lets the
    supervisor degrade to grid execution automatically when the in-RAM
    three-copy layout exceeds the budget.

``experiment``
    Regenerate one of the paper's tables/figures and print its table::

        python -m repro experiment fig3
        python -m repro experiment fig9 --scale 0.25

``checkpoints``
    Maintain a checkpoint directory: list runs/generations, verify their
    integrity, prune old generations::

        python -m repro checkpoints ls --checkpoint-dir ckpts
        python -m repro checkpoints verify --checkpoint-dir ckpts --store sharded
        python -m repro checkpoints prune --checkpoint-dir ckpts --keep 3

    ``--store`` takes a spec: a bare kind (``local``, ``sharded``,
    ``replicated``) optionally followed by colon-separated ``key=value``
    options, e.g. ``replicated:replicas=3``.

``memsim``
    Sweep the exact cache simulator over a dataset's partitioned trace
    and price the measured misses with the cost model::

        python -m repro memsim --dataset twitter --partitions 24 \
            --sets 64,256 --assoc 4,8,16

``info``
    Show the dataset registry and algorithm table.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import datasets
from .algorithms import registry
from .bench import figures
from .bench.harness import simulated_seconds
from .core.engine import Engine
from .core.options import EngineOptions
from .core.stats import stats_of
from .errors import ReproError, ValidationError
from .graph import io as graph_io
from .layout.store import GraphStore
from .machine.cost import CostModel, profile_store
from .machine.spec import MachineSpec

EXPERIMENTS = {
    "table1": lambda **kw: [figures.table1_graphs(**kw)],
    "table2": lambda **kw: [figures.table2_algorithms()],
    "fig2": lambda **kw: [figures.fig2_reuse_distance(**kw)[0]],
    "fig3": lambda **kw: [figures.fig3_replication(**kw)],
    "fig4": lambda **kw: [figures.fig4_storage(**kw)],
    "fig5": lambda **kw: list(figures.fig5_partition_scaling(**kw).values()),
    "fig6": lambda **kw: list(figures.fig6_small_graphs(**kw).values()),
    "fig7": lambda **kw: list(figures.fig7_sort_order(**kw).values()),
    "fig8": lambda **kw: list(figures.fig8_mpki(**kw).values()),
    "fig9": lambda **kw: list(figures.fig9_comparison(**kw).values()),
    "fig10": lambda **kw: list(figures.fig10_scalability(**kw).values()),
    "ablation-thresholds": lambda **kw: [figures.ablation_thresholds(**kw)],
    "ablation-balance": lambda **kw: [figures.ablation_balance(**kw)],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GraphGrind-v2 reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm on a graph")
    run.add_argument("algorithm", choices=registry.names())
    run.add_argument("--dataset", default="twitter", choices=datasets.names())
    run.add_argument("--graph", help="edge-list file (.npz or text) instead of --dataset")
    run.add_argument("--scale", type=float, default=0.5)
    run.add_argument("--partitions", type=int, default=96)
    run.add_argument("--threads", type=int, default=48)
    run.add_argument("--backend", default=None,
                     help="execution backend spec: serial | "
                          "threads[:workers=N][:strict=0|1] "
                          "(the task loop on a thread pool, writing in place; "
                          "'process' is an old name for 'threads') "
                          "(default: $REPRO_BACKEND or serial)")
    run.add_argument("--edge-order", default="source",
                     choices=("source", "destination", "hilbert"))
    run.add_argument("--checkpoint-dir",
                     help="snapshot iterative-algorithm state here after each iteration")
    run.add_argument("--resume", action="store_true",
                     help="resume from the newest valid checkpoint in --checkpoint-dir")
    run.add_argument("--checkpoint-every", type=int, default=1,
                     help="checkpoint every N iterations (default 1)")
    run.add_argument("--store", default="local",
                     help="checkpoint store spec: local | sharded | "
                          "replicated[:replicas=N] (default local)")
    run.add_argument("--checkpoint-keep", type=int, default=None, metavar="N",
                     help="keep only the newest N checkpoint generations per run")
    run.add_argument("--fault-plan",
                     help="inject faults, e.g. 'worker_crash@2:1,stall@3:0,oom@4'")
    run.add_argument("--max-retries", type=int, default=None,
                     help="supervised retries per edge-map phase (enables the "
                          "resilience supervisor; implied by --fault-plan)")
    run.add_argument("--watchdog", nargs="?", type=float, const=2.0, default=None,
                     metavar="GRACE",
                     help="enforce per-partition deadlines of GRACE x the cost "
                          "model's predicted partition time (default grace 2.0; "
                          "enables the resilience supervisor)")
    run.add_argument("--memory-budget", default=None, metavar="SIZE",
                     help="resident-byte budget, e.g. '8192', '64K', '1.5G'; "
                          "a layout over budget degrades to out-of-core grid "
                          "execution (enables the resilience supervisor)")
    run.add_argument("--spill-dir", default=None, metavar="DIR",
                     help="directory for the spilled grid (default: a "
                          "self-cleaning temporary directory; enables the "
                          "resilience supervisor)")
    run.add_argument("--grid", default=None, metavar="DIR",
                     help="stream a grid preprocessed with 'grid preprocess' "
                          "instead of traversing the in-RAM layouts")
    run.add_argument("--grid-stripes", type=int, default=None, metavar="P",
                     help="grid granularity when spilling (default: derived "
                          "from --memory-budget)")
    run.add_argument("--stripe-mode", default="vertex",
                     choices=("vertex", "degree"),
                     help="stripe boundary placement when spilling to a grid: "
                          "equal vertex counts or degree-balanced (BBC-style) "
                          "equal edge weight (default vertex)")

    grid = sub.add_parser(
        "grid", help="preprocess / inspect an out-of-core edge grid"
    )
    grid.add_argument("action", choices=("preprocess", "info", "verify"))
    grid.add_argument("directory", help="the grid directory")
    grid.add_argument("--dataset", default="twitter", choices=datasets.names())
    grid.add_argument("--graph",
                      help="edge-list file (.npz or text) instead of --dataset")
    grid.add_argument("--scale", type=float, default=0.5)
    grid.add_argument("--stripes", type=int, default=None, metavar="P",
                      help="grid granularity (default: derived from "
                           "--memory-budget, else 4)")
    grid.add_argument("--memory-budget", default=None, metavar="SIZE",
                      help="budget the granularity is derived from, "
                           "e.g. '64K', '1.5G'")
    grid.add_argument("--stripe-mode", default="vertex",
                      choices=("vertex", "degree"),
                      help="stripe boundary placement: equal vertex counts or "
                           "degree-balanced (BBC-style) equal edge weight "
                           "(default vertex)")
    grid.add_argument("--fault-plan", default=None,
                      help="inject write faults while preprocessing, "
                           "e.g. 'disk_full@0,torn_block@3'")

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    exp.add_argument("--scale", type=float, default=None)

    ckpt = sub.add_parser("checkpoints", help="maintain a checkpoint directory")
    ckpt.add_argument("action", choices=("ls", "verify", "prune"))
    ckpt.add_argument("--checkpoint-dir", required=True,
                      help="the directory holding the checkpoints")
    ckpt.add_argument("--store", default="local",
                      help="store spec the directory was written with "
                           "(kind[:key=value...], default local)")
    ckpt.add_argument("--name", help="restrict to one run name")
    ckpt.add_argument("--keep", type=int, default=1,
                      help="generations per run to keep when pruning (default 1)")

    memsim = sub.add_parser(
        "memsim", help="sweep the exact cache simulator over a dataset trace"
    )
    memsim.add_argument("--dataset", default="twitter", choices=datasets.names())
    memsim.add_argument("--scale", type=float, default=0.5)
    memsim.add_argument("--partitions", type=int, default=24)
    memsim.add_argument("--max-accesses", type=int, default=1_000_000,
                        help="truncate the trace to this many accesses (default 1M)")
    memsim.add_argument("--line-bytes", type=int, default=64)
    memsim.add_argument("--sets", default="64,256,1024",
                        help="comma-separated cache set counts to sweep")
    memsim.add_argument("--assoc", default="4,8,16",
                        help="comma-separated associativities to sweep")

    sub.add_parser("info", help="list datasets and algorithms")

    return parser


def _build_resilience(args: argparse.Namespace):
    """ResiliencePolicy from the CLI flags, or None when none were given."""
    if (
        args.fault_plan is None
        and args.max_retries is None
        and args.watchdog is None
        and args.memory_budget is None
        and args.spill_dir is None
    ):
        return None
    from .resilience import FaultPlan, ResiliencePolicy, Watchdog

    plan = FaultPlan.from_spec(args.fault_plan) if args.fault_plan else None
    watchdog = Watchdog(grace=args.watchdog) if args.watchdog is not None else None
    retries = {} if args.max_retries is None else {"max_retries": args.max_retries}
    return ResiliencePolicy(
        **retries,
        fault_plan=plan,
        watchdog=watchdog,
        memory_budget=args.memory_budget,
        spill_dir=args.spill_dir,
        grid_stripes=args.grid_stripes,
        grid_stripe_mode=args.stripe_mode,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        raise ValidationError("--resume requires --checkpoint-dir")
    spec = registry.get(args.algorithm)
    # The specs are parsed before the graph is loaded: a refused one costs no load.
    resilience = _build_resilience(args)
    options = EngineOptions(num_threads=args.threads, backend=args.backend)
    checkpoint_store = None
    if args.checkpoint_dir and spec.resumable:
        from .resilience import make_store

        checkpoint_store = make_store(args.store, args.checkpoint_dir)
    if args.graph:
        edges = graph_io.load(args.graph)
        source_name = args.graph
    else:
        edges = datasets.load(args.dataset, args.scale)
        source_name = f"{args.dataset}@{args.scale}"
    print(f"{spec.code} on {source_name}: |V|={edges.num_vertices} |E|={edges.num_edges}")

    t0 = time.perf_counter()
    store = GraphStore.build(
        edges,
        num_partitions=min(args.partitions, max(edges.num_vertices, 1)),
        balance=spec.balance,
        edge_order=args.edge_order,
    )
    build_s = time.perf_counter() - t0
    engine = Engine(store, options, resilience=resilience)

    session = None
    if args.checkpoint_dir:
        if not spec.resumable:
            print(f"note: {spec.code} is not checkpointable; running without checkpoints")
        else:
            from .resilience import CheckpointManager, CheckpointSession

            manager = CheckpointManager(
                args.checkpoint_dir,
                store=checkpoint_store,
                fault_plan=resilience.fault_plan if resilience else None,
                keep_last=args.checkpoint_keep,
            )
            run_name = f"{spec.code}-{source_name}"
            session = CheckpointSession(
                manager, run_name, every=args.checkpoint_every, resume=args.resume
            )

    # Closed on every way out: a run that raises (RetryExhausted, a bad
    # --grid directory) still joins the thread pool and releases the grid's
    # resident blocks (Engine.close) instead of leaving them to a finalizer.
    with engine:
        if args.grid:
            from .core.budget import parse_memory_budget
            from .layout.grid import GridStore

            budget = (
                parse_memory_budget(args.memory_budget) if args.memory_budget else None
            )
            engine.attach_grid(GridStore.open(
                args.grid,
                budget=budget,
                fault_plan=resilience.fault_plan if resilience else None,
            ))
        t0 = time.perf_counter()
        if session is not None:
            result = spec.run_resumable(engine, session)
        else:
            result = spec.run(engine)
        run_s = time.perf_counter() - t0
    backend_stats = engine.backend_stats
    for line in engine.resilience_log:
        print(f"resilience: {line}")
    grid = engine.grid
    if grid is not None:
        print(f"grid: {grid.num_stripes}x{grid.num_stripes} blocks, "
              f"{grid.stats.summary()}")
        budget = grid.budget
        if budget.limit_bytes is not None:
            print(f"grid: resident high-water {budget.high_water_bytes} B "
                  f"of {budget.limit_bytes} B budget "
                  f"({budget.admissions} admissions, {budget.evictions} evictions, "
                  f"{grid.stats.pinned_blocks} pinned blocks of {grid.stats.pinned_bytes} B)")
        for line in grid.events:
            print(f"grid: {line}")

    stats = stats_of(result)
    machine = MachineSpec().scaled_for(edges.num_vertices)
    model = CostModel(machine, num_threads=args.threads)
    sim_s = simulated_seconds(
        spec, result, model, profile_store(store, num_threads=args.threads)
    )

    print(f"store build: {build_s:.2f}s wall; run: {run_s:.2f}s wall")
    if backend_stats.kind != "serial" or backend_stats.fallbacks:
        print(f"backend {backend_stats.spec}: "
              f"workers {backend_stats.workers_spawned}; "
              f"batches {backend_stats.batches_dispatched}; "
              f"partitions {backend_stats.partitions_dispatched}; "
              f"fallbacks {backend_stats.fallbacks}")
    print(f"edge maps: {stats.num_iterations}; "
          f"layouts {stats.layout_histogram()}; "
          f"density {{ {', '.join(f'{k.value}: {v}' for k, v in stats.density_histogram().items())} }}")
    print(f"simulated time on modelled machine ({args.threads} threads): "
          f"{sim_s * 1e3:.3f} ms")
    pending = resilience.fault_plan.pending() if resilience and resilience.fault_plan else []
    if pending:  # e.g. a partition fault addressed to a sparse round: it tested nothing
        print(f"note: fault event(s) never fired: {', '.join(ev.spec() for ev in pending)}")
    return 0


def _cmd_checkpoints(args: argparse.Namespace) -> int:
    """Maintenance over a checkpoint directory: ls / verify / prune."""
    from .resilience import CheckpointManager, make_store

    manager = CheckpointManager(
        args.checkpoint_dir,
        store=make_store(args.store, args.checkpoint_dir),
    )

    names = [args.name] if args.name else manager.names()
    if not names:
        print(f"no checkpoints under {args.checkpoint_dir} ({args.store} store)")
        return 0

    if args.action == "ls":
        for name in names:
            steps = manager.steps(name)
            sizes = [manager.store.size_bytes(name, s) for s in steps]
            total = sum(s for s in sizes if s is not None)
            print(f"{name}: {len(steps)} generation(s) "
                  f"[{', '.join(str(s) for s in steps)}]"
                  + (f", {total / 1024:.1f} KiB" if total else ""))
        return 0

    if args.action == "verify":
        bad = 0
        for name in names:
            for step in manager.steps(name):
                ok = manager.verify(name, step)
                bad += 0 if ok else 1
                print(f"{name} step {step}: {'ok' if ok else 'CORRUPT'}")
        print(f"verify: {bad} corrupt generation(s)")
        return 1 if bad else 0

    if args.action == "prune":
        if args.keep < 1:
            raise ValidationError("--keep must be >= 1")
        for name in names:
            dropped = manager.prune(name, keep_last=args.keep)
            print(f"{name}: pruned {len(dropped)} generation(s), "
                  f"kept {len(manager.steps(name))}")
        return 0
    raise AssertionError("unreachable")


def _cmd_grid(args: argparse.Namespace) -> int:
    """Preprocess an edge list into an on-disk grid, or inspect one."""
    from .layout.grid import GridStore

    if args.action == "preprocess":
        if args.graph:
            path = str(Path(args.graph).resolve())
            edges = graph_io.load(args.graph)
            source = {"kind": "file", "path": path}
        else:
            edges = datasets.load(args.dataset, args.scale)
            source = {
                "kind": "dataset", "name": args.dataset, "scale": args.scale,
            }
        from .core.budget import parse_memory_budget

        budget = (
            parse_memory_budget(args.memory_budget) if args.memory_budget else None
        )
        plan = None
        if args.fault_plan:
            from .resilience import FaultPlan

            plan = FaultPlan.from_spec(args.fault_plan)
        grid = GridStore.build(
            edges, args.directory, num_stripes=args.stripes,
            stripe_mode=args.stripe_mode, budget=budget,
            fault_plan=plan, source=source,
        )
        for line in grid.events:
            print(f"grid: {line}")
        blocks = grid.manifest["blocks"]
        total = sum(entry["bytes"] for entry in blocks)
        stripes = grid.num_stripes
        print(f"preprocessed |V|={edges.num_vertices} |E|={edges.num_edges} "
              f"into {stripes}x{stripes} grid: "
              f"{len(blocks)} non-empty block(s), "
              f"{total / 1024:.1f} KiB in {args.directory}")
        return 0

    grid = GridStore.open(args.directory)
    if args.action == "info":
        print(repr(grid))
        source = grid.manifest.get("source")
        if source:
            print(f"source: {source}")
        for entry in grid.manifest["blocks"]:
            print(f"  block ({entry['i']},{entry['j']}): "
                  f"{entry['edges']} edge(s), {entry['bytes']} B, "
                  f"crc32 {entry['crc32']:#010x}")
        return 0

    if args.action == "verify":
        corrupt = grid.verify()
        for i, j in corrupt:
            print(f"block ({i},{j}): CORRUPT")
        print(f"verify: {len(grid.manifest['blocks'])} block(s), "
              f"{len(corrupt)} corrupt")
        return 1 if corrupt else 0
    raise AssertionError("unreachable")


def _cmd_experiment(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    for exp in EXPERIMENTS[args.name](**kwargs):
        print(exp.render())
        print()
    return 0


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"--{what} must be comma-separated integers") from exc
    if not values:
        raise ValidationError(f"--{what} must name at least one value")
    return values


def _cmd_memsim(args: argparse.Namespace) -> int:
    """Exact cache-simulation sweep over a partitioned dataset trace."""
    from .layout.coo import PartitionedCOO
    from .memsim import CacheConfig, SimulationCache, next_array_trace
    from .partition.by_destination import partition_by_destination

    sets = _parse_int_list(args.sets, "sets")
    assocs = _parse_int_list(args.assoc, "assoc")
    if args.max_accesses < 0 or args.line_bytes < 1:
        raise ValidationError("--max-accesses must be >= 0 and --line-bytes >= 1")
    edges = datasets.load(args.dataset, args.scale)
    vp = partition_by_destination(
        edges, min(args.partitions, max(edges.num_vertices, 1))
    )
    coo = PartitionedCOO.build(edges, vp, edge_order="source")
    trace = next_array_trace(
        coo, line_bytes=args.line_bytes, max_accesses=args.max_accesses
    )
    print(
        f"{args.dataset}@{args.scale}, {args.partitions} partitions: "
        f"{trace.size} accesses ({args.line_bytes} B lines)"
    )

    machine = MachineSpec().scaled_for(edges.num_vertices)
    model = CostModel(machine)
    sim = SimulationCache()
    configs = [
        CacheConfig(
            capacity_bytes=s * a * args.line_bytes,
            line_bytes=args.line_bytes,
            associativity=a,
        )
        for s in sets
        for a in assocs
    ]
    t0 = time.perf_counter()
    results = sim.sweep(trace, configs)
    sweep_s = time.perf_counter() - t0
    print(f"{'sets':>8} {'ways':>5} {'capacity':>10} {'misses':>10} "
          f"{'miss%':>7} {'mem-ns':>12}")
    for cfg in configs:
        res = results[cfg]
        mem_ns = model.measured_access_time_ns(res, write=True)
        print(f"{cfg.num_sets:>8} {cfg.associativity:>5} "
              f"{cfg.capacity_bytes:>10} {res.misses:>10} "
              f"{res.miss_ratio * 100.0:>6.2f} {mem_ns:>12.0f}")

    h = sim.histogram(trace)
    print(f"reuse distances: max {h.max_distance()}, "
          f"p50 {h.percentile(50):.0f}, p90 {h.percentile(90):.0f}, "
          f"p99 {h.percentile(99):.0f}, cold {h.cold_accesses}")
    print(f"sweep: {len(configs)} configs in {sweep_s:.3f}s "
          f"({len({c.num_sets for c in configs}) + 1} grouped passes, "
          f"cache hits {sim.hits})")
    return 0


def _cmd_info() -> int:
    print(figures.table1_graphs(scale=0.25).render())
    print()
    print(figures.table2_algorithms().render())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code: 0 on success, 1 on a
    :class:`~repro.errors.ReproError` (argparse itself exits 2 on bad flags).
    """
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "grid":
            return _cmd_grid(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "checkpoints":
            return _cmd_checkpoints(args)
        if args.command == "memsim":
            return _cmd_memsim(args)
        if args.command == "info":
            return _cmd_info()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
