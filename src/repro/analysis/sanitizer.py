"""Shadow-memory race sanitizer for partitioned edge-maps.

The engine's partitioned kernels are race-free only under two
conditions the type system cannot express: every partition writes a
disjoint slice of operator state (the destination-partitioned layouts'
guarantee), or the operator's update is a commutative-associative
reduction (its declared :attr:`~repro.core.ops.EdgeOperator.combine`).
This module checks both *dynamically*:

* :class:`ShadowWriteRecorder` wraps an operator during ``edge_map`` and
  diffs its state arrays around every partition batch, collecting
  per-partition *effective write sets* (indices whose value changed —
  idempotent same-value writes are benign by definition);
* :func:`write_conflicts` flags cross-partition write-write overlaps
  whose combine is not commutative-associative — the silent-wrong-answer
  race of this system family;
* :func:`check_operator_invariance` re-runs one edge-map under permuted
  partition schedules and demands bit-identical state;
* :func:`check_algorithm_invariance` does the same end-to-end for a
  registered algorithm: whole-graph batch (one partition) vs. forward
  vs. permuted per-partition batches must agree bit-for-bit;
* :func:`run_sanitizer` sweeps both checks across the registered
  algorithm matrix (the CI gate behind ``python -m repro lint --sanitize``).

:class:`LastWriterDemoOp` is the intentionally non-commutative operator
demonstrating that the sanitizer actually fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .._types import VID_DTYPE
from ..algorithms import registry
from ..core.engine import Engine
from ..core.ops import COMMUTATIVE_COMBINES, EdgeOperator, state_arrays, vertex_length
from ..core.options import EngineOptions
from ..frontier.frontier import Frontier
from ..graph import generators as gen
from ..graph.edgelist import EdgeList
from ..graph.weights import WeightFn
from ..layout.store import GraphStore

__all__ = [
    "SanitizerFinding",
    "ShadowWriteRecorder",
    "LastWriterDemoOp",
    "write_conflicts",
    "shadow_check_operator",
    "check_operator_invariance",
    "check_algorithm_invariance",
    "cross_validate_effects",
    "run_sanitizer",
    "default_graph",
]


@dataclass(frozen=True, order=True)
class SanitizerFinding:
    """One dynamic-check violation.

    Ordered (algorithm, kind, message) so reports are stable regardless
    of check execution order.
    """

    algorithm: str
    kind: str  # "write-conflict" | "batch-variance" | "effect-divergence"
    message: str

    def render(self) -> str:
        return f"sanitizer[{self.algorithm}] {self.kind}: {self.message}"


def default_graph(*, seed: int = 3) -> EdgeList:
    """The sanitizer's small deterministic workload (~128 vertices R-MAT)."""
    return gen.rmat(7, 6.0, seed=seed)


# ----------------------------------------------------------------------
# shadow recording
# ----------------------------------------------------------------------
def _changed_indices(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    if before.shape != after.shape or before.dtype != after.dtype:
        # A rebound/reshaped array: treat every slot as written.
        return np.arange(after.size, dtype=np.int64)
    if before.dtype.kind == "f":
        neq = (after != before) & ~(np.isnan(after) & np.isnan(before))
    else:
        neq = after != before
    return np.flatnonzero(neq.reshape(-1))


class ShadowWriteRecorder(EdgeOperator):
    """Wrap an operator; record each batch's effective write set.

    Delegates ``cond``/``process_edges`` (with ``weight_fn`` and a weighted
    operator's weights) to the wrapped operator and, per
    ``process_edges`` call (one per partition batch inside a partitioned
    kernel), diffs every state array to find the indices the batch
    changed.  ``write_sets[i]`` maps attribute name -> changed flat
    indices for batch ``i``.
    """

    def __init__(self, inner: EdgeOperator) -> None:
        self.inner = inner
        self.write_sets: list[dict[str, np.ndarray]] = []

    @property
    def combine(self) -> str | None:  # type: ignore[override]
        return self.inner.combine

    @property
    def weight_fn(self):  # type: ignore[override]
        return self.inner.weight_fn

    def cond(self, dst_ids: np.ndarray) -> np.ndarray | None:
        return self.inner.cond(dst_ids)

    def process_edges(self, src: np.ndarray, dst: np.ndarray, *w: np.ndarray) -> np.ndarray:
        before = {k: v.copy() for k, v in state_arrays(self.inner).items()}
        out = self.inner.process_edges(src, dst, *w)
        writes = {}
        after = state_arrays(self.inner)
        for key, prev in before.items():
            cur = after.get(key)
            if cur is None:
                continue
            changed = _changed_indices(prev, cur)
            if changed.size:
                writes[key] = changed
        self.write_sets.append(writes)
        return out


def write_conflicts(
    recorder: ShadowWriteRecorder, *, algorithm: str = "<op>"
) -> list[SanitizerFinding]:
    """Cross-batch write-write overlaps not covered by a commutative combine."""
    combine = recorder.combine
    if combine in COMMUTATIVE_COMBINES:
        return []
    findings: list[SanitizerFinding] = []
    attrs = {k for writes in recorder.write_sets for k in writes}
    for attr in sorted(attrs):
        sets = [
            (batch, writes[attr])
            for batch, writes in enumerate(recorder.write_sets)
            if attr in writes
        ]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                overlap = np.intersect1d(sets[i][1], sets[j][1])
                if overlap.size:
                    findings.append(
                        SanitizerFinding(
                            algorithm=algorithm,
                            kind="write-conflict",
                            message=(
                                f"partitions {sets[i][0]} and {sets[j][0]} both "
                                f"wrote {overlap.size} slot(s) of "
                                f"{type(recorder.inner).__name__}.{attr} "
                                f"(e.g. index {int(overlap[0])}) and the "
                                f"operator's combine {combine!r} is not "
                                "commutative-associative"
                            ),
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# invariance checks
# ----------------------------------------------------------------------
def _bit_mismatches(
    a: dict[str, np.ndarray], b: dict[str, np.ndarray]
) -> list[str]:
    """Names of arrays that are not bit-identical between two runs."""
    names = sorted(set(a) | set(b))
    out = []
    for name in names:
        x, y = a.get(name), b.get(name)
        if (
            x is None
            or y is None
            or x.shape != y.shape
            or x.dtype != y.dtype
            or x.tobytes() != y.tobytes()
        ):
            out.append(name)
    return out


def shadow_check_operator(
    edges: EdgeList,
    make_op: Callable[[Engine], EdgeOperator],
    *,
    algorithm: str = "<op>",
    num_partitions: int = 8,
    frontier: Frontier | None = None,
) -> list[SanitizerFinding]:
    """One shadow-recorded dense edge-map over the partitioned COO layout."""
    store = GraphStore.build(edges, num_partitions=num_partitions)
    engine = Engine(store, EngineOptions(num_threads=4, forced_layout="coo"))
    recorder = ShadowWriteRecorder(make_op(engine))
    engine.edge_map(frontier or Frontier.full(engine.num_vertices), recorder)
    return write_conflicts(recorder, algorithm=algorithm)


def check_operator_invariance(
    edges: EdgeList,
    make_op: Callable[[Engine], EdgeOperator],
    *,
    algorithm: str = "<op>",
    num_partitions: int = 8,
    orders: Sequence[str] = ("forward", "reverse", "shuffle"),
) -> list[SanitizerFinding]:
    """Re-run one edge-map under each partition order; states must match."""
    states: list[tuple[str, dict[str, np.ndarray]]] = []
    for order in orders:
        store = GraphStore.build(edges, num_partitions=num_partitions)
        engine = Engine(
            store,
            EngineOptions(
                num_threads=4,
                forced_layout="coo",
                partition_order=order,
                partition_order_seed=11,
            ),
        )
        op = make_op(engine)
        engine.edge_map(Frontier.full(engine.num_vertices), op)
        states.append((order, {k: v.copy() for k, v in state_arrays(op).items()}))
    base_order, base = states[0]
    findings = []
    for order, state in states[1:]:
        mismatched = _bit_mismatches(base, state)
        if mismatched:
            findings.append(
                SanitizerFinding(
                    algorithm=algorithm,
                    kind="batch-variance",
                    message=(
                        f"operator state {', '.join(mismatched)} differs "
                        f"between partition orders {base_order!r} and {order!r}"
                    ),
                )
            )
    return findings


def check_algorithm_invariance(
    code: str,
    *,
    edges: EdgeList | None = None,
    num_partitions: int = 8,
    num_threads: int = 4,
    shuffle_seed: int = 11,
) -> list[SanitizerFinding]:
    """Whole-graph batch vs. (permuted) per-partition batches, bit-for-bit.

    Runs the registered algorithm three times — one partition (every
    edge-map sees whole-graph batches), ``num_partitions`` visited
    forward, and ``num_partitions`` visited in a seeded shuffle — and
    requires the result arrays to be bit-identical across all three.
    """
    spec = registry.get(code)
    edges = edges if edges is not None else default_graph()

    def run(partitions: int, order: str) -> dict[str, np.ndarray]:
        store = GraphStore.build(
            edges, num_partitions=partitions, balance=spec.balance
        )
        engine = Engine(
            store,
            EngineOptions(
                num_threads=num_threads,
                partition_order=order,
                partition_order_seed=shuffle_seed,
            ),
        )
        return registry.result_arrays(spec.run(engine))

    baseline = run(1, "forward")
    variants = [
        ("whole-graph vs forward partitions", run(num_partitions, "forward")),
        ("whole-graph vs shuffled partitions", run(num_partitions, "shuffle")),
    ]
    findings = []
    for label, arrays in variants:
        mismatched = _bit_mismatches(baseline, arrays)
        if mismatched:
            findings.append(
                SanitizerFinding(
                    algorithm=code,
                    kind="batch-variance",
                    message=(
                        f"{label}: result field(s) {', '.join(mismatched)} "
                        "are not bit-identical"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# per-algorithm shadow probes
# ----------------------------------------------------------------------
def _probe_op(code: str, engine: Engine) -> EdgeOperator:
    """A representative first-iteration operator for each registered code."""
    from ..algorithms.bc import SigmaOp
    from ..algorithms.bellman_ford import BellmanFordOp
    from ..algorithms.bfs import BFSOp
    from ..algorithms.bp import BPOp, default_priors
    from ..algorithms.cc import CCOp
    from ..algorithms.pagerank import PageRankOp
    from ..algorithms.prdelta import PRDeltaOp
    from ..algorithms.spmv import SPMVOp
    from .._types import NO_VERTEX, VAL_DTYPE

    n = engine.num_vertices
    source = registry.default_source(engine)
    deg = np.maximum(engine.store.out_degrees.astype(VAL_DTYPE), 1.0)
    if code == "PR":
        return PageRankOp(np.full(n, 1.0 / n) / deg, np.zeros(n, dtype=VAL_DTYPE))
    if code == "PRDelta":
        return PRDeltaOp(np.full(n, 0.15 / n) / deg, np.zeros(n, dtype=VAL_DTYPE))
    if code == "SPMV":
        return SPMVOp(np.ones(n, dtype=VAL_DTYPE), np.zeros(n, dtype=VAL_DTYPE), WeightFn())
    if code == "BP":
        priors = default_priors(n)
        return BPOp(priors.copy(), np.zeros(n, VAL_DTYPE), np.zeros(n, VAL_DTYPE), 0.1)
    if code == "CC":
        return CCOp(np.arange(n, dtype=VID_DTYPE))
    if code == "BFS":
        parent = np.full(n, NO_VERTEX, dtype=VID_DTYPE)
        parent[source] = source
        return BFSOp(parent)
    if code == "BF":
        dist = np.full(n, np.inf, dtype=VAL_DTYPE)
        dist[source] = 0.0
        return BellmanFordOp(dist, WeightFn())
    if code == "BC":
        sigma = np.zeros(n, dtype=VAL_DTYPE)
        visited = np.zeros(n, dtype=bool)
        sigma[source] = 1.0
        visited[source] = True
        return SigmaOp(sigma, visited)
    raise KeyError(f"no sanitizer probe for algorithm {code!r}")


def cross_validate_effects(
    code: str,
    *,
    edges: EdgeList | None = None,
    num_partitions: int = 8,
) -> list[SanitizerFinding]:
    """The dynamic layer audits the static layer: every write the shadow
    recorder *observes* must be covered by the effect pass's *inferred*
    write sets, and writes the pass proved destination-sliced must land
    inside the observing partition's ``[lo, hi)`` vertex range.

    Any divergence means the certificate over-promises — a hard failure,
    because the engine skips runtime guards on the strength of exactly
    those inferred sets.
    """
    from .certificate import operator_report

    edges = edges if edges is not None else default_graph()
    store = GraphStore.build(edges, num_partitions=num_partitions)
    # forward order so shadow batch i is exactly partition i's slice.
    engine = Engine(
        store,
        EngineOptions(num_threads=4, forced_layout="coo", partition_order="forward"),
    )
    inner = _probe_op(code, engine)
    report = operator_report(type(inner))
    inferred = report.written_arrays()
    recorder = ShadowWriteRecorder(inner)
    engine.edge_map(Frontier.full(engine.num_vertices), recorder)

    n = engine.num_vertices
    ranges = store.coo.partition
    arrays = state_arrays(inner)
    findings: list[SanitizerFinding] = []
    for batch, writes in enumerate(recorder.write_sets):
        lo, hi = ranges.vertex_range(batch)
        for attr in sorted(writes):
            indices = writes[attr]
            spaces = inferred.get(attr)
            if spaces is None:
                findings.append(
                    SanitizerFinding(
                        algorithm=code,
                        kind="effect-divergence",
                        message=(
                            f"observed write to {type(inner).__name__}.{attr} "
                            f"(partition {batch}) is absent from the inferred "
                            "effect set"
                        ),
                    )
                )
                continue
            array = arrays.get(attr)
            if spaces <= {"dst"} and array is not None and vertex_length(array, n):
                out_of_slice = indices[(indices < lo) | (indices >= hi)]
                if out_of_slice.size:
                    findings.append(
                        SanitizerFinding(
                            algorithm=code,
                            kind="effect-divergence",
                            message=(
                                f"inference proved {type(inner).__name__}."
                                f"{attr} destination-sliced, but partition "
                                f"{batch} wrote index {int(out_of_slice[0])} "
                                f"outside its range [{lo}, {hi})"
                            ),
                        )
                    )
    return findings


def run_sanitizer(
    codes: Sequence[str] | None = None,
    *,
    edges: EdgeList | None = None,
    num_partitions: int = 8,
) -> list[SanitizerFinding]:
    """Shadow write-set, batch-invariance, and static-vs-dynamic effect
    sweep over the registered algorithms, deterministically sorted."""
    edges = edges if edges is not None else default_graph()
    findings: list[SanitizerFinding] = []
    for code in codes or registry.names():
        findings.extend(
            shadow_check_operator(
                edges,
                lambda eng: _probe_op(code, eng),
                algorithm=code,
                num_partitions=num_partitions,
            )
        )
        findings.extend(
            check_algorithm_invariance(
                code, edges=edges, num_partitions=num_partitions
            )
        )
        findings.extend(
            cross_validate_effects(
                code, edges=edges, num_partitions=num_partitions
            )
        )
    return sorted(findings)


# ----------------------------------------------------------------------
# demo: what a real violation looks like
# ----------------------------------------------------------------------
class LastWriterDemoOp(EdgeOperator):
    """Intentionally order-dependent: ``state[src] = dst``, last writer wins.

    Sources are *not* partitioned — the same source occurs in many
    partitions' edge batches — so whichever partition runs last owns the
    final value: a textbook write-write race on a non-commutative
    combine.  Used by tests (and DESIGN.md) to demonstrate that both
    sanitizer layers flag it; never wire this pattern into a real
    operator.
    """

    combine = None

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        # the out-of-slice write is the whole point of this demo operator
        self.state[src] = dst.astype(self.state.dtype)  # graphlint: disable=GL006
        return np.empty(0, dtype=VID_DTYPE)


def demo_findings(*, edges: EdgeList | None = None) -> list[SanitizerFinding]:
    """Run both sanitizer layers against :class:`LastWriterDemoOp`."""
    edges = edges if edges is not None else default_graph()

    def make_op(engine: Engine) -> EdgeOperator:
        return LastWriterDemoOp(np.full(engine.num_vertices, -1, dtype=np.int64))

    findings = shadow_check_operator(edges, make_op, algorithm="demo")
    findings.extend(check_operator_invariance(edges, make_op, algorithm="demo"))
    return findings
