"""Task kernels and the one task -> kernel-arguments mapping.

Each ``run_*_partition`` function runs *one task* of a traversal (sparse
forward CSR, backward CSC, streaming COO, partitioned CSR) over plain
numpy arrays and returns its
:class:`~repro.core.plan.PartitionRecord`.  A CSC or COO task
is a run of adjacent partitions (:class:`~repro.core.plan.PartitionTask`
— most often a run of one): the kernel does everything *around* the
operator once for the run — the frontier filter, ``cond``, the
gather, the compression, the per-partition distinct counts — and then
hands ``op.process_edges`` one batch per partition, lowest first, as
slices of the compressed arrays.  Operators that read what they write
(CC, Bellman-Ford) see the earlier partitions' updates in the later
ones, so for them a merged batch would change the phase count and every
statistic downstream; only with ``fuse`` — the operator is certified
edge-local (:attr:`~repro.analysis.certificate.OperatorReport.edge_local`)
— is the run one batch, which nothing observable can tell apart.

A phase whose frontier is every vertex carries no bitmap
(``bitmap is None``): every source is live, so there is nothing to
gather and, when ``cond`` passes everything too, nothing to compress —
the operator's batches are zero-copy slices of the layout's own arrays
at the task's edge cuts, and a COO partition's (or a grid block's)
distinct destinations are a constant of the layout (or grid), handed in
as ``distinct`` instead of being re-counted.  Same loop, same batches in
the same order; only the copies go.

The CSR, CSC and partitioned-CSR kernels hand the operator the ``intp``
ids of one compiled gather (:func:`~repro.core.gather.gather_adjacency`)
over a narrowed layout; the COO kernel hands it ``int32`` slices of the
layout.  A weighted operator's weights reach the in-RAM COO and sparse
CSR kernels as ``w`` from the engine's per-store cache (the CSR's ride in
its gather); anywhere else (a grid block, the CSC, the partitioned CSR)
the kernel hashes the run's live edges once, never once per partition.

The kernels are the single source of truth for the task computation:
the engine's one loop calls them, in its own thread or in the ``threads``
backend's pool over the same arrays (the sparse CSR kernel, one call per
phase, straight from the engine).  :func:`kernel_args` is the other half
of that guarantee: ``(kernel, arrays, task, fuse)`` becomes a partitioned
kernel's positional arguments here and nowhere else.

``cond_fn`` abstracts the cond guard (:func:`cond_guard`): the raw
``op.cond`` for operators certified partition-pure, else
:func:`~repro.core.ops.validated_cond`.  The record's ``cond_calls``
field reports how many per-partition guards the task stands for, which
the engine folds into its ``guards_skipped`` / ``guard_invocations``
counters wherever the task executed.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .._types import VAL_DTYPE
from ..frontier.distinct import count_distinct, count_distinct_between
from .gather import gather_adjacency
from .ops import process_batch, validated_cond
from .plan import PartitionRecord

__all__ = [
    "KERNEL_FUNCTIONS",
    "cond_guard",
    "kernel_args",
    "run_csc_partition",
    "run_coo_partition",
    "run_pcsr_partition",
    "run_csr_sparse_partition",
]

#: kernel name (as a partitioned phase's :class:`~repro.core.plan.PhasePlan`
#: carries it) -> the name of its function, which runs one task.  Callers
#: resolve the name in *their own* module namespace at call time, so a patched
#: binding (the benchmark's tracer wraps ``repro.core.engine.run_*_partition``)
#: is the one that runs.  The sparse CSR phase has no plan: the engine calls
#: ``run_csr_sparse_partition`` itself (``Engine._sparse_round``).
KERNEL_FUNCTIONS = {
    "csc": "run_csc_partition",
    "coo": "run_coo_partition",
    "pcsr": "run_pcsr_partition",
}


def _plain_cond(op, dst_ids):
    return op.cond(dst_ids)


def cond_guard(validate: bool):
    """The ``cond_fn`` to hand a kernel: guarded, or the raw ``op.cond``."""
    return validated_cond if validate else _plain_cond


def kernel_args(kernel: str, arrays: dict, task, fuse: bool) -> tuple:
    """Positional arguments of ``kernel``'s function after ``(op, cond_fn)``.

    ``arrays`` maps the plan's array names to numpy arrays, ``task`` is the
    :class:`~repro.core.plan.PartitionTask` to run, ``fuse`` ``PhasePlan.fused``.
    """
    i = task.partition
    if kernel == "coo":
        elo, ehi = task.extra[0], task.extra[-1]
        # ``distinct``: full-frontier phases only; ``w``: in-RAM phases only
        distinct, w = arrays.get("distinct"), arrays.get("w")
        if distinct is not None:
            distinct = distinct[i : i + task.num_partitions]
        return (
            arrays["src"][elo:ehi], arrays["dst"][elo:ehi], None if w is None else w[elo:ehi],
            distinct, arrays.get("bitmap"), i, task.cuts, task.extra - elo, fuse,
        )
    if kernel == "csc":
        return (arrays["index"], arrays["neighbors"], arrays.get("bitmap"), i, task.cuts, fuse)
    if kernel == "pcsr":
        return (
            arrays[f"index:{i}"], arrays[f"neighbors:{i}"],
            arrays[f"vertex_ids:{i}"], int(arrays["num_stored"][i]),
            arrays.get("bitmap"), arrays.get("active_ids"), i, task.lo, task.hi,
        )
    raise ValueError(f"unknown kernel {kernel!r}")


def _per_partition(op, src, dst, w, at: list, keep: list, fuse: bool):
    """``op``'s activations over one batch per partition, lowest first:
    ``src[at[k]:at[k + 1]]`` / ``dst[...]`` (/ ``w[...]``) for every ``k`` that
    ``keep[k]`` (``at`` spans all of ``dst``; a skipped ``k`` is empty), or
    with ``fuse`` the kept ones as one (``at`` unread).  Returns them concatenated,
    how many per-partition batches they stand for, and whether every batch
    handed back the very ``dst`` slice it was given — they then add up to
    ``dst`` itself, which is returned, not a copy."""
    acts, echoed, batches = [], True, keep.count(True)
    if w is None and op.weight_fn is not None:  # once per run, never per partition
        w = np.ascontiguousarray(op.weight_fn(src, dst), VAL_DTYPE)
    if fuse:
        at, keep = [0, dst.size], [batches > 0]
    for a, b, kept in zip(at, at[1:], keep):
        if kept:
            batch = dst[a:b]
            act = process_batch(op, src[a:b], batch, None if w is None else w[a:b])
            acts.append(act)
            echoed = echoed and act is batch
    if echoed:
        return dst, batches, True
    if len(acts) == 1:  # one batch needs no copy
        return acts[0], batches, False
    return np.concatenate(acts), batches, False


def run_csc_partition(
    op,
    cond_fn,
    index: np.ndarray,
    neighbors: np.ndarray,
    bitmap: np.ndarray | None,
    partition: int,
    cuts: np.ndarray,
    fuse: bool,
) -> PartitionRecord:
    """Backward traversal of a run of destination ranges of the whole-graph
    CSC.  Zero-width ranges get no operator batch (and no guard);
    ``bitmap is None`` means every source is live; ``fuse`` merges the rest."""
    lo, hi = int(cuts[0]), int(cuts[-1])
    if lo == hi:
        return PartitionRecord.empty(partition, lo, hi, cuts.size - 1)
    candidates = np.arange(lo, hi, dtype=index.dtype)  # the gather's one width
    cond = cond_fn(op, candidates)
    if cond is not None:
        candidates = candidates[cond]
    dst, src, _ = gather_adjacency(index, neighbors, candidates)
    # The gather groups edges by ascending candidate, so ``dst`` ascends
    # and the vertex cuts find every partition's slice.
    examined_at = dst.searchsorted(cuts)
    if bitmap is None:
        src_live, dst_live, live_at = src, dst, examined_at.tolist()
    else:
        live = bitmap[src]
        src_live, dst_live = src[live], dst[live]
        live_at = dst_live.searchsorted(cuts).tolist()
    keep = (cuts[1:] > cuts[:-1]).tolist()
    acts, batches, _ = _per_partition(op, src_live, dst_live, None, live_at, keep, fuse)
    return PartitionRecord(
        partition=partition,
        lo=lo,
        hi=hi,
        activated=acts,
        examined=int(src.size),
        active_edges=int(src_live.size),
        scanned=hi - lo,
        part_examined=examined_at[1:] - examined_at[:-1],
        touched=count_distinct_between(dst_live, cuts),
        cond_calls=batches,
    )


def run_csr_sparse_partition(
    op, cond_fn, src: np.ndarray, dst: np.ndarray, w: np.ndarray | None, num_vertices: int
) -> PartitionRecord:
    """The sparse forward-CSR traversal: one call over the whole graph.

    ``src``/``dst`` (and a weighted operator's ``w``) are the edges
    already gathered from the frontier's out-adjacency; ``[0,
    num_vertices)`` only labels the record, which carries no per-partition
    statistics (a CSR :class:`EdgeMapStats` reports none).
    """
    examined = int(dst.size)
    cond = cond_fn(op, dst)
    if cond is not None:
        src, dst = src[cond], dst[cond]
        w = None if w is None else w[cond]
    acts = process_batch(op, src, dst, w)
    return PartitionRecord(
        0, 0, num_vertices, acts, examined=examined, active_edges=int(dst.size), cond_calls=1
    )


def run_coo_partition(
    op,
    cond_fn,
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray | None,
    distinct: np.ndarray | None,
    bitmap: np.ndarray | None,
    partition: int,
    cuts: np.ndarray,
    edge_cuts: np.ndarray,
    fuse: bool,
) -> PartitionRecord:
    """Streaming traversal of a run of partitions' destination-sorted edge
    slice; ``edge_cuts`` are the partitions' offsets into ``src``/``dst``
    (and ``w``, the cached weights of the same edges, if any).
    Every partition gets its operator batch, an empty one included — or,
    with ``fuse``, the run's live edges are one batch.

    ``bitmap is None`` means every source is live.  When ``cond`` passes
    every edge as well, the batches are slices of ``src``/``dst``/``w``
    themselves and ``distinct`` — the run's distinct destinations per
    partition, counted once per store, or a grid block's, once per grid —
    is the record's ``touched`` (``None``, a phase with a bitmap: counted
    here); if the operator then hands every batch's ``dst`` back, the
    record says so (``all_dst``) and its ``activated`` is ``dst``, a view."""
    live = None if bitmap is None else bitmap[src]
    cond = cond_fn(op, dst)
    if cond is not None:
        live = cond if live is None else live & cond
    at = edge_cuts.tolist()
    if live is None:
        src_live, dst_live, live_at = src, dst, at
    else:
        src_live, dst_live = src[live], dst[live]
        w = None if w is None else w[live]
        # Live edges per partition (none to cut a fused run), counted slice by
        # slice: a vectorised count_nonzero per partition beats any one pass
        # over the whole mask (cumsum, reduceat) at every run length.
        counts = () if fuse else [np.count_nonzero(live[a:b]) for a, b in zip(at, at[1:])]
        live_at = list(accumulate(counts, initial=0))
    acts, batches, echoed = _per_partition(
        op, src_live, dst_live, w, live_at, [True] * (len(at) - 1), fuse
    )
    if live is not None or distinct is None:
        # Not all of the layout's (or block's) ``dst``: nothing the fold
        # could look up per store instead of deduplicating.
        distinct, echoed = count_distinct_between(dst_live, cuts), False
    return PartitionRecord(
        partition=partition,
        lo=int(cuts[0]),
        hi=int(cuts[-1]),
        activated=acts,
        examined=int(src.size),
        active_edges=int(src_live.size),
        part_examined=edge_cuts[1:] - edge_cuts[:-1],
        touched=distinct,
        cond_calls=batches,
        all_dst=echoed,
    )


def run_pcsr_partition(
    op,
    cond_fn,
    index: np.ndarray,
    neighbors: np.ndarray,
    vertex_ids: np.ndarray,
    num_stored: int,
    bitmap: np.ndarray | None,
    active_ids: np.ndarray | None,
    partition: int,
    lo: int,
    hi: int,
) -> PartitionRecord:
    """Forward traversal of one pruned per-partition CSR (Figure 5 layout).
    ``bitmap`` and ``active_ids`` are the frontier in both its forms;
    both ``None`` means every stored vertex is live."""
    if bitmap is None:
        live_slots = np.arange(vertex_ids.size)
        scanned = num_stored
    elif active_ids.size * 8 < num_stored:
        # Sparse frontier: binary-search each active vertex in this
        # partition's stored slots instead of scanning them all.
        pos = np.searchsorted(vertex_ids, active_ids)
        valid = pos < vertex_ids.size
        hits = vertex_ids[pos[valid]] == active_ids[valid]
        live_slots = pos[valid][hits]
        scanned = int(active_ids.size)
    else:
        # Dense frontier: every stored (replicated) vertex is visited to
        # test activity — the §II.F work inflation.
        live_slots = np.flatnonzero(bitmap[vertex_ids])
        scanned = num_stored
    if live_slots.size == 0:
        rec = PartitionRecord.empty(partition, lo, hi)
        rec.scanned = scanned
        return rec
    slot_keys, dst, _ = gather_adjacency(index, neighbors, live_slots.astype(index.dtype))
    src = vertex_ids[slot_keys].astype(np.intp)  # the gathered ``dst``'s width
    examined = int(dst.size)
    cond = cond_fn(op, dst)
    if cond is not None:
        src, dst = src[cond], dst[cond]
    acts = process_batch(op, src, dst)
    return PartitionRecord(
        partition=partition,
        lo=lo,
        hi=hi,
        activated=acts,
        examined=examined,
        active_edges=int(src.size),
        scanned=scanned,
        part_examined=np.array([examined]),
        touched=np.array([count_distinct(dst)]),
        cond_calls=1,
    )
