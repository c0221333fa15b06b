"""Reference implementations: the scalar oracles the vectorised code is
differentially tested against.

They are test material, not product, so they live here rather than under
``src/``; ``benchmarks/bench_memsim_perf.py`` (and the CI job that runs
it) times the memsim three against the kernels that replaced them.

:func:`reference_edge_map`
    Applies the Ligra semantics one edge at a time, in plain edge-list
    order, feeding each edge to the operator as a one-element batch.
    Because all the paper's algorithms use commutative per-destination
    reductions, the final state must match the engine's batched,
    partition-sliced execution exactly.
:func:`reference_stack_distances`
    The scalar Bennett–Kruskal algorithm over a Fenwick tree, O(N log N)
    with one Python iteration per access: the oracle of
    :func:`repro.memsim.reuse.stack_distances`.
:func:`reference_simulate_cache`, :func:`reference_simulate_shared_cache`
    Per-access list-based LRU replays: the oracles of
    :func:`repro.memsim.cache.simulate_cache` and
    :func:`repro.memsim.multicore.simulate_shared_cache`.
:func:`reference_layouts`, :func:`reference_shard_edges`
    The ``np.lexsort`` layout builders (CSR/CSC, partitioned COO, grid
    shard) that :func:`repro.graph.edgelist.sorted_pairs` replaced: every
    array the packed-key builders produce must equal theirs bit for bit.
:func:`reference_partitioned_csr`
    ``PartitionedCSR.build`` as it was, grouping edges by home partition
    with a stable argsort.
"""

from __future__ import annotations

import numpy as np

from repro._types import EID_DTYPE, VID_DTYPE
from repro.core.ops import EdgeOperator, process_batch
from repro.frontier.frontier import Frontier
from repro.graph.edgelist import EdgeList
from repro.memsim.cache import CacheConfig, CacheResult
from repro.memsim.fenwick import Fenwick
from repro.memsim.multicore import MulticoreResult
from repro.memsim.reuse import COLD
from repro.partition.by_destination import partition_by_destination
from repro.partition.hilbert import hilbert_sort_order
from repro.partition.vertex_partition import VertexPartition

__all__ = [
    "reference_edge_map",
    "reference_stack_distances",
    "reference_simulate_cache",
    "reference_simulate_shared_cache",
    "reference_layouts",
    "reference_shard_edges",
    "reference_partitioned_csr",
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


def reference_simulate_shared_cache(
    streams: list[np.ndarray],
    config: CacheConfig,
    *,
    block: int = 64,
    tag_bits: int = 40,
) -> MulticoreResult:
    """Per-access scalar scheduler walk (the pre-vectorisation path).

    Kept verbatim as the differential-testing oracle for
    :func:`simulate_shared_cache`.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    num_sets = config.num_sets
    ways = config.associativity
    resident: list[list[int]] = [[] for _ in range(num_sets)]
    misses = [0] * len(streams)
    lengths = [int(np.asarray(s).size) for s in streams]
    positions = [0] * len(streams)
    tagged = [
        (np.asarray(s, dtype=np.int64) | (np.int64(i) << tag_bits)).tolist()
        for i, s in enumerate(streams)
    ]
    live = [i for i, n in enumerate(lengths) if n]
    while live:
        nxt_live = []
        for i in live:
            start = positions[i]
            end = min(start + block, lengths[i])
            stream = tagged[i]
            miss_count = 0
            for k in range(start, end):
                addr = stream[k]
                s = addr % num_sets
                lines = resident[s]
                try:
                    lines.remove(addr)
                except ValueError:
                    miss_count += 1
                    if len(lines) >= ways:
                        lines.pop()
                lines.insert(0, addr)
            misses[i] += miss_count
            positions[i] = end
            if end < lengths[i]:
                nxt_live.append(i)
        live = nxt_live
    return MulticoreResult(
        accesses_per_stream=tuple(lengths),
        misses_per_stream=tuple(misses),
    )


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
