"""Reference implementations: the scalar oracles the vectorised code is
differentially tested against.

They are test material, not product, so they live here rather than under
``src/``; ``benchmarks/bench_memsim_perf.py`` (and the CI job that runs
it) times the memsim two against the kernels that replaced them.

:func:`reference_edge_map`
    Applies the Ligra semantics one edge at a time, in plain edge-list
    order, feeding each edge to the operator as a one-element batch.
    Because all the paper's algorithms use commutative per-destination
    reductions, the final state must match the engine's batched,
    partition-sliced execution exactly.
:func:`reference_pagerank`
    PageRank's loop with the vertex side as one whole-array expression
    per iteration (a boolean-mask gather of the dangling ranks, fresh
    arrays for the new ranks and their change): the oracle that the
    in-place vertex side of :func:`repro.algorithms.pagerank.pagerank`
    must match bit for bit.
:func:`reference_stack_distances`
    The scalar Bennett–Kruskal algorithm over a :class:`Fenwick` tree, O(N log N)
    with one Python iteration per access: the oracle of
    :func:`repro.memsim.reuse.stack_distances`.
:func:`reference_simulate_cache`
    The per-access list-based LRU replay: the oracle of
    :func:`repro.memsim.cache.simulate_cache`.
:func:`reference_layouts`, :func:`reference_shard_edges`
    The ``np.lexsort`` layout builders (CSR/CSC, partitioned COO, grid
    shard) that :func:`repro.graph.edgelist.sorted_pairs` replaced: every
    array the packed-key builders produce must equal theirs bit for bit.
:func:`reference_partitioned_csr`
    ``PartitionedCSR.build`` as it was, grouping edges by home partition
    with a stable argsort.
:func:`reference_from_weights`
    Algorithm 1's cuts as ``VertexPartition.from_weights`` made them: one
    ``searchsorted`` per cut on the ``int64`` weight prefix, which numpy
    casts to ``float64`` inside every call.
:func:`hilbert_point`
    The inverse of :func:`repro.partition.hilbert.hilbert_index`, which
    the curve's round-trip and continuity tests walk.
:func:`bp_exact`, :func:`enumerate_marginals`
    Exact sum-product BP with per-edge messages, and brute-force
    marginals: the oracles of the framework's belief-product BP
    (:mod:`repro.algorithms.bp`) on trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._types import EID_DTYPE, VAL_DTYPE, VID_DTYPE
from repro.algorithms.pagerank import PageRankOp
from repro.core.engine import Engine
from repro.core.ops import EdgeOperator, process_batch
from repro.errors import GraphFormatError
from repro.frontier.frontier import Frontier
from repro.graph.edgelist import EdgeList
from repro.memsim.cache import CacheConfig, CacheResult
from repro.memsim.reuse import COLD
from repro.partition.by_destination import partition_by_destination
from repro.partition.hilbert import hilbert_sort_order
from repro.partition.vertex_partition import VertexPartition

__all__ = [
    "reference_edge_map",
    "reference_pagerank",
    "reference_stack_distances",
    "reference_simulate_cache",
    "reference_layouts",
    "reference_shard_edges",
    "reference_partitioned_csr",
    "Fenwick",
    "hilbert_point",
    "bp_exact",
    "BPExactResult",
    "enumerate_marginals",
]


def reference_edge_map(
    edges: EdgeList, frontier: Frontier, op: EdgeOperator
) -> Frontier:
    """Edge-at-a-time oracle with identical semantics to ``Engine.edge_map``."""
    bitmap = frontier.as_bitmap()
    activated: list[int] = []
    for e in range(edges.num_edges):
        u = int(edges.src[e])
        if not bitmap[u]:
            continue
        v = int(edges.dst[e])
        dst = np.array([v], dtype=VID_DTYPE)
        cond = op.cond(dst)
        if cond is not None and not bool(cond[0]):
            continue
        src = np.array([u], dtype=VID_DTYPE)
        acts = process_batch(op, src, dst)  # a weighted operator hashes its one edge
        activated.extend(int(a) for a in acts)
    return Frontier(edges.num_vertices, sparse=np.array(activated, dtype=VID_DTYPE))


def reference_pagerank(
    engine: Engine,
    *,
    damping: float = 0.85,
    iterations: int = 10,
    tolerance: float = 0.0,
    handle_dangling: bool = True,
) -> tuple[np.ndarray, float]:
    """``(ranks, last_delta)`` of ``pagerank``'s power method, its vertex
    side written as whole-array expressions."""
    n = engine.num_vertices
    out_deg = engine.store.out_degrees.astype(VAL_DTYPE)
    safe_deg = np.where(out_deg > 0, out_deg, 1.0)
    dangling = out_deg == 0
    ranks = np.full(n, 1.0 / n, dtype=VAL_DTYPE)
    frontier = Frontier.full(n)
    delta = float("inf")
    for _ in range(iterations):
        op = PageRankOp(ranks / safe_deg, np.zeros(n, dtype=VAL_DTYPE))
        engine.edge_map(frontier, op)
        dangling_mass = float(ranks[dangling].sum()) if handle_dangling else 0.0
        new_ranks = (1.0 - damping) / n + damping * (op.accum + dangling_mass / n)
        delta = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if tolerance > 0.0 and delta < tolerance:
            break
    return ranks, delta


class Fenwick:
    """Point-update / prefix-sum tree over ``size`` integer slots."""

    __slots__ = ("size", "tree")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        """Add ``delta`` at position ``index`` (0-based)."""
        tree = self.tree
        i = index + 1
        n = self.size
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of positions ``0..index`` inclusive (0 for index < 0)."""
        tree = self.tree
        i = index + 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


def reference_stack_distances(trace: np.ndarray) -> np.ndarray:
    """Scalar Bennett–Kruskal stack distances (Fenwick tree, per-access loop).

    The pre-vectorisation implementation, retained as the oracle for the
    differential property tests of the batched kernel.
    """
    trace = np.asarray(trace)
    n = int(trace.size)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    # Compact addresses to 0..k-1 for the last-position table.
    _, compact = np.unique(trace, return_inverse=True)
    fen = Fenwick(n)
    last: dict[int, int] = {}
    add = fen.add
    prefix = fen.prefix_sum
    compact_list = compact.tolist()
    for i, addr in enumerate(compact_list):
        p = last.get(addr)
        if p is None:
            out[i] = COLD
        else:
            # distinct addresses in (p, i) = set flags strictly between.
            out[i] = prefix(i - 1) - prefix(p)
            add(p, -1)
        add(i, 1)
        last[addr] = i
    return out


def reference_simulate_cache(
    line_trace: np.ndarray, config: CacheConfig
) -> CacheResult:
    """Per-access scalar LRU replay (the pre-vectorisation implementation).

    Each set keeps its resident lines in a most-recently-used-first Python
    list; kept as the differential-testing oracle for
    :func:`simulate_cache`.
    """
    trace = np.asarray(line_trace, dtype=np.int64)
    n = int(trace.size)
    if n == 0:
        return CacheResult(accesses=0, misses=0)
    num_sets = config.num_sets
    ways = config.associativity
    sets = trace % num_sets
    misses = 0
    resident: list[list[int]] = [[] for _ in range(num_sets)]
    for addr, s in zip(trace.tolist(), sets.tolist()):
        lines = resident[s]
        try:
            lines.remove(addr)
        except ValueError:
            misses += 1
            if len(lines) >= ways:
                lines.pop()
        lines.insert(0, addr)
    return CacheResult(accesses=n, misses=misses)


# ----------------------------------------------------------------------
# the lexsort layout builders
# ----------------------------------------------------------------------
def reference_compressed(edges: EdgeList, axis: str, pruned: bool) -> dict:
    """``repro.graph.csr._build`` as it was: one lexsort, two gathers."""
    if axis == "out":
        keys, values = edges.src, edges.dst
    else:
        keys, values = edges.dst, edges.src
    order = np.lexsort((values, keys))
    keys = keys[order]
    values = values[order]
    counts = np.bincount(keys, minlength=edges.num_vertices).astype(EID_DTYPE)
    if pruned:
        vertex_ids = np.flatnonzero(counts > 0).astype(VID_DTYPE)
        counts = counts[vertex_ids]
    else:
        vertex_ids = np.arange(edges.num_vertices, dtype=VID_DTYPE)
    index = np.zeros(counts.size + 1, dtype=EID_DTYPE)
    np.cumsum(counts, out=index[1:])
    return {"vertex_ids": vertex_ids, "index": index, "neighbors": values}


def _reference_coo(edges: EdgeList, partition: VertexPartition, edge_order: str) -> dict:
    """``PartitionedCOO.build`` as it was: a three-key lexsort (or a Hilbert
    rank plus a two-key lexsort)."""
    pid = partition.partition_of(edges.dst).astype(np.int64)
    if edge_order == "source":
        order = np.lexsort((edges.dst, edges.src, pid))
    elif edge_order == "destination":
        order = np.lexsort((edges.src, edges.dst, pid))
    else:  # hilbert within each partition
        h = hilbert_sort_order(edges.src, edges.dst, edges.num_vertices)
        # lexsort with pid as the primary key, preserving Hilbert order
        # inside each partition via the rank of each edge on the curve.
        rank = np.empty(edges.num_edges, dtype=np.int64)
        rank[h] = np.arange(edges.num_edges, dtype=np.int64)
        order = np.lexsort((rank, pid))
    counts = np.bincount(pid, minlength=partition.num_partitions)
    index = np.zeros(partition.num_partitions + 1, dtype=EID_DTYPE)
    np.cumsum(counts, out=index[1:])
    return {"src": edges.src[order], "dst": edges.dst[order], "partition_index": index}


def reference_layouts(
    edges: EdgeList, *, num_partitions: int, edge_order: str, balance: str
) -> dict[str, np.ndarray]:
    """Every array ``GraphStore.build`` stores, by the lexsort builders, keyed
    ``"<layout>.<field>"`` with layout ``csr``, ``csc`` or ``coo``."""
    partition = partition_by_destination(edges, num_partitions, balance=balance)
    coo_partition = (
        partition
        if balance == "edges"
        else partition_by_destination(edges, num_partitions, balance="edges")
    )
    layouts = {
        "csr": reference_compressed(edges, "out", False),
        "csc": reference_compressed(edges, "in", False),
        "coo": _reference_coo(edges, coo_partition, edge_order),
    }
    return {
        f"{name}.{field}": array
        for name, arrays in layouts.items()
        for field, array in arrays.items()
    }


def reference_shard_edges(
    edges: EdgeList, stripes: VertexPartition
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``repro.layout.grid._shard_edges`` as it was: edges sorted by (src,
    dst) plus each edge's (src stripe, dst stripe)."""
    order = np.lexsort((edges.dst, edges.src))
    src = edges.src[order]
    dst = edges.dst[order]
    return src, dst, stripes.partition_of(src), stripes.partition_of(dst)


def reference_partitioned_csr(edges: EdgeList, partition: VertexPartition) -> list[dict]:
    """``PartitionedCSR.build`` as it was: a stable argsort by destination
    home partition, then one pruned CSR per partition.  Each part's
    ``vertex_ids`` / ``index`` / ``neighbors``, lowest partition first."""
    pid = partition.partition_of(edges.dst).astype(np.int64)
    order = np.argsort(pid, kind="stable")
    counts = np.bincount(pid[order], minlength=partition.num_partitions)
    offsets = np.zeros(partition.num_partitions + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    src, dst = edges.src[order], edges.dst[order]
    return [
        reference_compressed(EdgeList(edges.num_vertices, src[lo:hi], dst[lo:hi]), "out", True)
        for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist())
    ]


def reference_from_weights(weights: np.ndarray, num_partitions: int) -> np.ndarray:
    """The boundaries ``VertexPartition.from_weights`` gave when each of its
    ``P - 1`` searches took the ``int64`` prefix."""
    weights = np.asarray(weights, dtype=np.int64)
    num_vertices = int(weights.size)
    avg = int(weights.sum()) / num_partitions
    prefix = np.cumsum(weights)
    boundaries = np.empty(num_partitions + 1, dtype=np.int64)
    boundaries[0] = 0
    start_weight = 0.0
    for i in range(1, num_partitions):
        cut = int(np.searchsorted(prefix, start_weight + avg, side="left")) + 1
        cut = min(cut, num_vertices)
        boundaries[i] = cut
        start_weight = float(prefix[cut - 1]) if cut > 0 else 0.0
    boundaries[num_partitions] = num_vertices
    np.maximum.accumulate(boundaries, out=boundaries)
    np.minimum(boundaries, num_vertices, out=boundaries)
    return boundaries


# ----------------------------------------------------------------------
# the Hilbert curve's inverse
# ----------------------------------------------------------------------
def hilbert_point(order_bits: int, d) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`hilbert_index`: curve distance → ``(x, y)``."""
    t = np.atleast_1d(np.asarray(d, dtype=np.uint64)).copy()
    x = np.zeros(t.shape, dtype=np.uint64)
    y = np.zeros(t.shape, dtype=np.uint64)
    one = np.uint64(1)
    s = np.uint64(1)
    top = np.uint64(1) << np.uint64(order_bits)
    while s < top:
        rx = one & (t // np.uint64(2))
        ry = one & (t ^ rx)
        # Rotate back.
        rot = ry == 0
        flip = rot & (rx == one)
        x[flip] = s - one - x[flip]
        y[flip] = s - one - y[flip]
        tmp = x[rot].copy()
        x[rot] = y[rot]
        y[rot] = tmp
        x += s * rx
        y += s * ry
        t //= np.uint64(4)
        s <<= one
    return x, y


# ----------------------------------------------------------------------
# exact belief propagation
# ----------------------------------------------------------------------
def _reverse_edge_index(edges: EdgeList) -> np.ndarray:
    """Index of the reverse edge (v, u) for every edge (u, v)."""
    n = np.int64(edges.num_vertices)
    fwd = edges.src.astype(np.int64) * n + edges.dst.astype(np.int64)
    bwd = edges.dst.astype(np.int64) * n + edges.src.astype(np.int64)
    order = np.argsort(fwd)
    pos = np.searchsorted(fwd[order], bwd)
    if np.any(pos >= fwd.size) or np.any(fwd[order][np.minimum(pos, fwd.size - 1)] != bwd):
        raise GraphFormatError("bp_exact requires a symmetric edge list")
    return order[pos]


@dataclass(frozen=True)
class BPExactResult:
    """Exact-BP marginals P(x=1) and the synchronous iteration count."""

    beliefs: np.ndarray
    iterations: int
    converged: bool


def bp_exact(
    edges: EdgeList,
    priors: np.ndarray,
    *,
    eps: float = 0.1,
    max_iterations: int = 200,
    tolerance: float = 1e-12,
) -> BPExactResult:
    """Synchronous sum-product BP on a symmetric pairwise binary MRF.

    Unlike the framework BP, it keeps one message per directed edge and
    excludes the receiver's own message when computing a new one, so on
    trees it converges to the exact marginals within diameter-many
    iterations.  ``eps`` parameterises the smoothing potential
    ``psi = [[1-eps, eps], [eps, 1-eps]]``.
    """
    priors = np.asarray(priors, dtype=VAL_DTYPE)
    n = edges.num_vertices
    m = edges.num_edges
    if priors.shape != (n,):
        raise ValueError(f"priors must have shape ({n},), got {priors.shape}")
    rev = _reverse_edge_index(edges)
    src, dst = edges.src, edges.dst
    # msg[e] = normalised message of edge e = (u, v): (m(x_v = 0), m(x_v = 1)).
    msg = np.full((m, 2), 0.5, dtype=VAL_DTYPE)
    phi = np.column_stack([1.0 - priors, priors])
    psi = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]], dtype=VAL_DTYPE)
    it = 0
    converged = False
    for it in range(1, max_iterations + 1):
        # Per-vertex products of incoming messages (log-space, per state).
        log_in = np.zeros((n, 2), dtype=VAL_DTYPE)
        np.add.at(log_in, dst, np.log(msg))
        # Pre-message of each edge (u, v): phi_u * prod_{w != v} m_{w->u},
        # obtained by dividing out the reverse message.
        pre = np.log(phi[src]) + log_in[src] - np.log(msg[rev])
        pre -= pre.max(axis=1, keepdims=True)
        pre = np.exp(pre)
        new = pre @ psi  # sum over x_u: pre(x_u) * psi[x_u, x_v]
        new /= new.sum(axis=1, keepdims=True)
        delta = float(np.abs(new - msg).max())
        msg = new
        if delta < tolerance:
            converged = True
            break
    log_belief = np.log(phi)
    np.add.at(log_belief, dst, np.log(msg))
    log_belief -= log_belief.max(axis=1, keepdims=True)
    belief = np.exp(log_belief)
    belief /= belief.sum(axis=1, keepdims=True)
    return BPExactResult(beliefs=belief[:, 1], iterations=it, converged=converged)


def enumerate_marginals(
    edges: EdgeList, priors: np.ndarray, *, eps: float = 0.1
) -> np.ndarray:
    """Brute-force exact marginals by enumerating all 2^|V| states.

    Refuses graphs with more than 20 vertices.  Each *undirected* pair
    contributes one potential factor (the symmetric edge list stores it
    twice; duplicates are collapsed).
    """
    n = edges.num_vertices
    if n > 20:
        raise ValueError("enumeration oracle is limited to 20 vertices")
    priors = np.asarray(priors, dtype=VAL_DTYPE)
    und = {(min(int(u), int(v)), max(int(u), int(v))) for u, v in edges.to_pairs()}
    psi = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]], dtype=VAL_DTYPE)
    states = np.arange(1 << n)[:, None] >> np.arange(n)[None, :] & 1
    weight = np.prod(np.where(states == 1, priors, 1.0 - priors), axis=1)
    for u, v in und:
        weight *= psi[states[:, u], states[:, v]]
    z = weight.sum()
    return np.array([weight[states[:, v] == 1].sum() / z for v in range(n)])
