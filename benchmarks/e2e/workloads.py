"""The six workloads: which graph, which engine, which mix of algorithms.

Each row stresses a different set of layers (see README.md for the
probe numbers behind every ``why``).  Inputs are generated here, in the
benchmark's own process, from ``--seed``; the program under test only
ever receives the ``.npz`` file and the source vertices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: ``EngineOptions.num_threads`` everywhere, and the pool size of the
#: process row: the reference box has two cores.
NUM_THREADS = 2


@dataclass(frozen=True)
class Sizes:
    """Graph sizes; only the smoke test shrinks them."""

    rmat_scale: int = 17
    road_big: int = 500
    road_small: int = 200
    partitions: int = 384


FULL = Sizes()
SMOKE = Sizes(rmat_scale=10, road_big=30, road_small=20, partitions=48)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "rmat", "road_big" or "road_small".
    graph: str
    backend: str
    #: algorithm codes of one pass, in order.
    mix: tuple[str, ...]
    #: False pins P=1 (the unpartitioned baseline); True uses ``Sizes.partitions``.
    partitioned: bool = True
    #: how many explicit sources BFS/BF run from (0: the registry's default).
    num_sources: int = 0
    #: run under the out-of-core policy with checkpoints, as
    #: ``run --memory-budget --checkpoint-dir`` does.
    spill: bool = False

    def partitions(self, sizes: Sizes) -> int:
        return sizes.partitions if self.partitioned else 1

    def calls(self, sources: list[int]) -> list[tuple[str, int | None]]:
        """One pass as (code, source) calls; source-less codes run once."""
        out: list[tuple[str, int | None]] = []
        for code in self.mix:
            if self.num_sources and code in ("BFS", "BF"):
                out.extend((code, s) for s in sources)
            else:
                out.append((code, None))
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "dense_rmat",
            "All-COO dense phases at the paper's optimum P=384: core.kernels and "
            "core.ops do most of the work; gather, backend and grid do none.",
            "rmat", "serial", ("PR", "SPMV"),
        ),
        Workload(
            "dense_rmat_p1",
            "Unpartitioned single-threaded baseline: the same kernels over one "
            "whole-graph working set; its run_s over dense_rmat's is the paper's headline.",
            "rmat", "serial", ("PR", "SPMV"), partitioned=False,
        ),
        Workload(
            "dense_rmat_proc",
            "The dense_rmat mix through core.backend: pool dispatch, shm publish and "
            "merge do the marginal work, so a backend-only gain moves only this row.",
            "rmat", f"process:workers={NUM_THREADS}", ("PR", "SPMV"),
        ),
        Workload(
            "spill_rmat",
            "The out-of-core path as run --memory-budget --checkpoint-dir reaches it: "
            "grid read/CRC/prefetch under the budget, journal, watchdog, checkpoints.",
            "rmat", "serial:prefetch=2", ("PR", "CC", "BFS"), spill=True,
        ),
        Workload(
            "sparse_road",
            "Thousands of sparse CSR phases with tiny frontiers: per-phase cost in "
            "core.engine, core.gather, frontier and the operator call dominates.",
            "road_big", "serial", ("BFS", "BF"), num_sources=2,
        ),
        Workload(
            "mixed_cc_road",
            "About 190 phases x 384 tiny partitions across CSR, CSC and COO with a "
            "min-reduction: per-partition-task overhead and the backward-CSC kernel.",
            "road_small", "serial", ("CC",),
        ),
    ]
}


def call_key(call: tuple[str, int | None]) -> str:
    code, source = call
    return code if source is None else f"{code}@{source}"


def run_call(engine, call: tuple[str, int | None], session=None):
    """Run one (code, source) call on ``engine``."""
    from repro.algorithms import registry
    from repro.algorithms.bellman_ford import bellman_ford
    from repro.algorithms.bfs import bfs

    code, source = call
    if source is not None:
        return {"BFS": bfs, "BF": bellman_ford}[code](engine, source)
    spec = registry.get(code)
    if session is not None:
        return spec.run_resumable(engine, session)
    return spec.run(engine)


def run_mix(engine, calls, manager=None) -> tuple[float, dict[str, float], list]:
    """Run one pass: (seconds, seconds per algorithm code, results).

    With a checkpoint ``manager`` every call runs resumable under a
    session that saves after each iteration, as ``run --checkpoint-dir``
    does."""
    from repro.resilience import CheckpointSession

    clock = time.perf_counter
    per_code: dict[str, float] = {}
    results = []
    start = clock()
    for call in calls:
        session = None
        if manager is not None:
            session = CheckpointSession(manager, call_key(call), every=1)
        t0 = clock()
        results.append(run_call(engine, call, session))
        per_code[call[0]] = per_code.get(call[0], 0.0) + clock() - t0
    return clock() - start, per_code, results


def _road_sources(side: int, count: int, seed: int) -> list[int]:
    """``count`` sources of equal eccentricity on the ``side`` x ``side`` lattice.

    BFS rounds (and so pass time) follow the source's eccentricity, which
    between a corner and the centre differs 2x; drawing freely would make
    ``run_s`` a function of the seed.  The lattice with its one-way
    diagonal shortcuts maps onto itself under transposition and 180
    degree rotation, so the four images of one interior point are
    equivalent sources; the seed picks among them (the shortcuts
    themselves still differ per seed).
    """
    r, c = side // 4, (2 * side) // 5
    last = side - 1
    orbit = [(r, c), (c, r), (last - r, last - c), (last - c, last - r)]
    picks = np.random.default_rng(seed).choice(len(orbit), size=count, replace=False)
    return [orbit[i][0] * side + orbit[i][1] for i in picks]


def make_inputs(workload: Workload, seed: int, sizes: Sizes, directory: Path):
    """Generate the workload's graph from ``seed`` and save it.

    Returns ``(edges, npz_path, sources)``.  The file is the uncompressed
    form of what ``graph.io.save_npz`` writes (``load_npz`` reads both):
    deflating 15 MB costs 2.4 s of generator time on every run and is no
    part of the system under test.
    """
    from repro.graph.generators import rmat, road_grid

    sources: list[int] = []
    if workload.graph == "rmat":
        edges = rmat(sizes.rmat_scale, 16.0, seed=seed)
    else:
        side = sizes.road_big if workload.graph == "road_big" else sizes.road_small
        edges = road_grid(side, seed=seed)
        sources = _road_sources(side, workload.num_sources, seed)
    path = directory / f"{workload.graph}.npz"
    with open(path, "wb") as fh:
        np.savez(
            fh,
            num_vertices=np.int64(edges.num_vertices),
            src=edges.src,
            dst=edges.dst,
        )
    return edges, path, sources
