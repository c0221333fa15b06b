"""Algorithm registry: Table II metadata plus uniform benchmark runners.

Each :class:`AlgorithmSpec` records the paper's classification of the
algorithm — preferred traversal direction (the *prior-work* labelling the
paper revisits) and vertex- vs edge-orientation (the classification the
paper argues actually explains performance) — together with the
load-balance criterion §III.D assigns it and a uniform ``run(engine)``
adapter used by every benchmark.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.engine import Engine
from .bc import betweenness
from .bellman_ford import bellman_ford
from .bfs import bfs
from .bp import belief_propagation
from .cc import connected_components
from .pagerank import pagerank
from .prdelta import pagerank_delta
from .spmv import spmv

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..resilience.checkpoint import CheckpointSession

__all__ = [
    "AlgorithmSpec",
    "ALGORITHMS",
    "names",
    "get",
    "resumable",
    "default_source",
    "result_arrays",
]


def result_arrays(result: object) -> dict[str, np.ndarray]:
    """The numpy-array fields of an algorithm result, by field name.

    Every registered runner returns a result dataclass whose payload
    (ranks, labels, parents, distances, ...) lives in ndarray fields;
    metadata like :class:`~repro.core.stats.RunStats` is skipped.  Tests
    compare these arrays bit-for-bit across partition schedules, so
    extraction must be exhaustive and deterministic.
    """
    if dataclasses.is_dataclass(result):
        items = [(f.name, getattr(result, f.name)) for f in dataclasses.fields(result)]
    else:
        items = sorted(vars(result).items())
    return {name: value for name, value in items if isinstance(value, np.ndarray)}


def default_source(engine: Engine) -> int:
    """Deterministic traversal root: the maximum-out-degree vertex.

    Matches common practice for BFS/BC/SSSP benchmarks on social graphs
    (a high-degree root reaches the giant component immediately).
    """
    return int(np.argmax(engine.store.out_degrees))


@dataclass(frozen=True)
class AlgorithmSpec:
    """One Table II row plus a uniform runner."""

    code: str
    description: str
    #: the literature's preferred edge-traversal direction (Table II).
    traversal: str
    #: "vertex" or "edge" — the paper's orientation classification.
    orientation: str
    #: §III.D load-balance criterion for this orientation.
    balance: str
    #: the one runner: ``run(engine)``, and for a ``resumable`` algorithm
    #: also ``run(engine, checkpoint=session)``.
    run: Callable[..., object]
    #: per-edge compute weight relative to PageRank's single add — feeds
    #: the cost model's ``update_scale`` (BP evaluates message functions
    #: with transcendentals per edge; SPMV/BF do a multiply-add).
    update_scale: float = 1.0
    #: whether the loop checkpoints (iterative algorithms only): ``run``
    #: then takes a ``checkpoint`` session and resumes from its latest.
    resumable: bool = False
    #: ``"package.module:ClassName"`` paths of every
    #: :class:`~repro.core.ops.EdgeOperator` the runner drives (the e2e
    #: tracer wraps each one's ``process_edges``).
    operators: tuple[str, ...] = ()

    @property
    def run_resumable(self) -> Callable[[Engine, CheckpointSession], object] | None:
        """``run`` under a :class:`~repro.resilience.CheckpointSession`, as
        ``run_resumable(engine, session)``; ``None`` for one-shot algorithms.
        It ends once the session's writes are durable: the run's own
        exception wins, with a writer error as its cause."""
        if not self.resumable:
            return None
        return partial(_run_joined, self.run)


def _run_joined(run, engine: Engine, session: CheckpointSession) -> object:
    """``run(engine, checkpoint=session)``, then its last write's join."""
    try:
        result = run(engine, checkpoint=session)
    except BaseException as exc:
        try:
            session.manager.flush()
        except Exception as writer_error:
            raise exc from writer_error
        raise
    session.manager.flush()
    return result


def _from_default_source(algorithm) -> Callable[..., object]:
    """Runner of a single-source ``algorithm`` rooted at :func:`default_source`."""
    return lambda eng, **kwargs: algorithm(eng, default_source(eng), **kwargs)


ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.code: spec
    for spec in [
        AlgorithmSpec(
            "BC", "betweenness-centrality (Brandes, single source)",
            "backward", "vertex", "vertices",
            _from_default_source(betweenness),
            operators=(
                "repro.algorithms.bc:SigmaOp",
                "repro.algorithms.bc:DependencyOp",
            ),
        ),
        AlgorithmSpec(
            "CC", "connected components using label propagation",
            "backward", "edge", "edges",
            connected_components,
            resumable=True,
            operators=("repro.algorithms.cc:CCOp",),
        ),
        AlgorithmSpec(
            "PR", "PageRank, power method, 10 iterations",
            "backward", "edge", "edges",
            partial(pagerank, iterations=10),
            resumable=True,
            operators=("repro.algorithms.pagerank:PageRankOp",),
        ),
        AlgorithmSpec(
            "BFS", "breadth-first search",
            "backward", "vertex", "vertices",
            _from_default_source(bfs),
            resumable=True,
            operators=("repro.algorithms.bfs:BFSOp",),
        ),
        AlgorithmSpec(
            "PRDelta", "PageRank forwarding delta-updates between vertices",
            "forward", "edge", "edges",
            partial(pagerank_delta, epsilon=1e-4),
            resumable=True,
            operators=("repro.algorithms.prdelta:PRDeltaOp",),
        ),
        AlgorithmSpec(
            "SPMV", "sparse matrix-vector multiplication (1 iteration)",
            "forward", "edge", "edges",
            spmv,
            update_scale=1.5,
            operators=("repro.algorithms.spmv:SPMVOp",),
        ),
        AlgorithmSpec(
            "BF", "Bellman-Ford single-source shortest path",
            "forward", "vertex", "vertices",
            _from_default_source(bellman_ford),
            update_scale=1.5,
            resumable=True,
            operators=("repro.algorithms.bellman_ford:BellmanFordOp",),
        ),
        AlgorithmSpec(
            "BP", "Bayesian belief propagation, 10 iterations",
            "forward", "edge", "edges",
            belief_propagation,
            update_scale=80.0,
            resumable=True,
            operators=("repro.algorithms.bp:BPOp",),
        ),
    ]
}


def names() -> list[str]:
    """Algorithm codes in Table II order."""
    return list(ALGORITHMS)


def resumable() -> list[str]:
    """Codes of the checkpointable algorithms.

    The CLI's ``checkpoints`` maintenance subcommand and the bench
    harness use this to know which runs can participate in
    kill-and-resume experiments.
    """
    return [code for code, spec in ALGORITHMS.items() if spec.resumable]


def get(code: str) -> AlgorithmSpec:
    """Look up an algorithm spec by its Table II code."""
    try:
        return ALGORITHMS[code]
    except KeyError:
        raise KeyError(f"unknown algorithm {code!r}; available: {names()}") from None
