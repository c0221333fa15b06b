"""Vectorised edge/vertex operator protocol for the Ligra-style API.

Ligra's ``EDGEMAP(G, F, update, cond)`` applies ``update(u, v)`` to every
edge ``(u, v)`` with ``u`` active and ``cond(v)`` true, and returns the set
of vertices for which an update "returned true".  A per-edge Python
callback would be hopelessly slow, so operators here receive whole *batches*
of edges as numpy arrays and apply their update with an unbuffered scatter
— a ufunc's ``.at`` (``np.minimum.at``, ``np.add.at``, ...) or, for the
add-reductions ``acc[dst] += x[src]`` of PageRank and PRDelta and
``y[dst] += w * x[src]`` of SPMV, the one compiled loop of
:func:`scatter_add_gather` — which is correct in the presence of
duplicate destinations for the commutative reductions all of the paper's
algorithms use.  A weighted operator gets its edges' weights ``w`` beside
``src``/``dst`` (:func:`process_batch`).

The engine may slice one logical edge-map into many batches (one per graph
partition) in any order, which is exactly the freedom the paper's
partitioned execution exploits; operators must therefore be insensitive to
batch boundaries and ordering.

What that insensitivity buys is stated precisely: the *result arrays* of
every shipped algorithm are bit-identical on every backend, partition
order and task grain.  The *trajectory* is not part of it: an operator
that reads what it writes (CC, Bellman-Ford) sees, in a later batch, the
labels an earlier batch of the same phase already lowered — Gauss–Seidel
across partitions — so its phase count and per-phase ``EdgeMapStats``
depend on the partition count — which is also why the ``threads``
backend runs them in-process.  That is why the engine's tasks hoist the work
*around* the operator call over a run of partitions and never merge the
batches themselves (:mod:`repro.core.kernels`).
"""

from __future__ import annotations

import abc
import collections
import functools
import weakref
import zlib

import numpy as np
from scipy.sparse._sparsetools import coo_matvec

from .._types import VAL_DTYPE, VID_DTYPE
from ..errors import OperatorContractError
from .plan import TASK_EDGES

__all__ = [
    "EdgeOperator",
    "process_batch",
    "scatter_add_gather",
    "prove_ids",
    "MUTABLE_NON_ARRAY_TYPES",
    "overrides_snapshot_hooks",
    "WriteSet",
    "state_arrays",
    "vertex_length",
    "snapshot_blind_spots",
    "validated_cond",
]

#: Container types the default :meth:`EdgeOperator.snapshot` silently
#: misses — the supervised engine refuses to run operators that hold these
#: without overriding the snapshot/restore pair.
MUTABLE_NON_ARRAY_TYPES = (
    dict, list, set, bytearray, collections.deque,
    collections.defaultdict, collections.OrderedDict, collections.Counter,
)

#: The resilience hooks an operator with state beyond arrays overrides together.
_SNAPSHOT_HOOKS = ("snapshot", "restore")


class EdgeOperator(abc.ABC):
    """One iteration's edge update for an algorithm.

    Subclasses hold references to the algorithm's state arrays and mutate
    them in :meth:`process_edges`.  What the engine may assume of them is
    what the class declares; an operator that declares nothing runs the
    guarded path, one partition per task and in the engine's thread.
    """

    #: The state arrays this operator writes, by attribute name, each
    #: written only at ``dst`` — so a task over ``[lo, hi)`` writes only
    #: that range of them.  Declaring it also promises that ``cond`` returns
    #: ``None`` or a boolean mask parallel to its argument and reads written
    #: state only at the ids it is handed: the engine then skips the mask
    #: validation and evaluates ``cond`` for a run of partitions at once.
    #: ``None`` declares nothing.  ``tests/lattice.py::contract_lines``
    #: holds every edge-map and task it runs to the declaration.
    writes: tuple[str, ...] | None = None
    #: One ``process_edges`` call over a run of partitions is the same as
    #: one per partition: no attribute in :attr:`writes` is read outside
    #: ``dst``, and nothing depends on the batch's length, position or
    #: extent.  A run then reaches the operator as one batch, and the phase
    #: may run on the thread pool (its tasks cannot read each other's writes).
    #: Meaningful only with :attr:`writes`.
    edge_local: bool = False
    #: A weighted operator's ``(src, dst) -> weights`` function (a
    #: :class:`~repro.graph.weights.WeightFn`); it never calls it itself:
    #: its batches arrive with their weights (:func:`process_batch`).
    weight_fn = None

    def cond(self, dst_ids: np.ndarray) -> np.ndarray | None:
        """Which destination vertices still accept updates.

        Returns a boolean mask parallel to ``dst_ids``, or ``None`` meaning
        "all true" (the default).  Used by the backward CSC kernel to skip
        whole adjacency slices (e.g. already-visited vertices in BFS) and by
        the other kernels to pre-filter edges.
        """
        return None

    @abc.abstractmethod
    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Apply the update to edges ``(src[i], dst[i])``.

        A weighted operator is called as ``process_edges(src, dst, w)``:
        ``w[i]`` is edge ``i``'s weight, a float64 value to read, never ids
        (often a view of the engine's per-store weight cache).

        ``src`` and ``dst`` are integer ids of one width, not of a fixed
        one.  A batch the kernel copied is ``intp``: gathered edges (sparse
        CSR, CSC, partitioned CSR) and a COO or grid run with a bitmap,
        which compresses its live edges.  A full-frontier COO or grid run
        copies nothing and hands out ``int32`` slices of the layout.
        Index with them as they come; never narrow or widen them.

        Both arrays may contain duplicate vertices.  Returns the vertex ids
        activated by these updates, duplicates and all (``dst[mask]``).
        Operators must not dedup: the engine's fold owns the phase's one
        dedup, and a second one per batch costs as much again and changes
        nothing (``BFSOp`` dedups for its own first-writer store's sake).

        ``src`` and ``dst`` may be views of the layout's own edge arrays
        (a full-frontier phase compresses nothing): read them, never
        write them (a COO layout's are frozen: a write raises).  An
        operator that activates every destination should return the very
        ``dst`` *object* it was handed: nobody mutates a record's
        ``activated``, and a full-frontier phase that gets its
        own ``dst`` back from every batch knows the next frontier without
        folding anything (the vertices with an in-edge, cached per store);
        a copy or ``dst[mask]`` is folded and deduplicated as usual.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # resilience hooks: phase-level rollback for supervised retry
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of every mutable array this operator holds.

        The engine's supervisor takes a snapshot before a fault-injected
        edge-map phase so a partially applied phase can be rolled back and
        re-executed from scratch (the retry is then bit-identical to a
        fault-free phase).  The default covers operators whose state is
        plain numpy-array attributes; operators with other mutable state
        must override both hooks.
        """
        return {key: value.copy() for key, value in state_arrays(self).items()}

    def restore(self, saved: dict[str, np.ndarray]) -> None:
        """Roll the arrays captured by :meth:`snapshot` back **in place**,
        so algorithm-held references to the same arrays see the rollback."""
        for key, value in saved.items():
            getattr(self, key)[...] = value


def process_batch(op: EdgeOperator, src, dst, w=None):
    """``op.process_edges`` over one batch, as every caller calls it: a
    weighted operator also gets ``w``, or where the caller has none
    ``op.weight_fn(src, dst)`` as contiguous float64, as the cache holds it."""
    if op.weight_fn is None:
        return op.process_edges(src, dst)
    if w is None:
        w = np.ascontiguousarray(op.weight_fn(src, dst), VAL_DTYPE)
    return op.process_edges(src, dst, w)


# ----------------------------------------------------------------------
# the dense add-reduction as one compiled loop
# ----------------------------------------------------------------------
_F64 = np.dtype(VAL_DTYPE)
#: the id dtypes the loop is compiled for, each with the unsigned view of its width
_IDS = {np.dtype(VID_DTYPE): np.uint32, np.dtype(np.intp): np.uintp}
#: the loop's factor: exactly 1.0 makes ``1.0 * x[src[k]]`` exact, so the sum is
#: ``np.add.at``'s bit for bit whether or not ``y += a * x`` became an FMA.  Twice
#: ``TASK_EDGES``, because a fused run closes only once it reaches ``TASK_EDGES``:
#: almost every run is then one call, not a full chunk and a small tail.
_ONES = np.ones(2 * TASK_EDGES, dtype=VAL_DTYPE)
#: ``id(owner) -> (weakref to owner, bound)``: the id arrays :func:`prove_ids` checked
_PROVEN: dict[int, tuple[weakref.ref, int]] = {}


def _within(ids: np.ndarray, size: int) -> bool:
    """Every id in ``[0, size)``: one unsigned ``argmax`` (a negative id is a huge one)."""
    u = ids.view(_IDS[ids.dtype])
    return not ids.size or u[u.argmax()] < size


def prove_ids(ids: np.ndarray, bound: int) -> None:
    """Check the 1-D id array ``ids``, which owns its data, against ``[0, bound)``
    once, freeze it and record the proof for :func:`scatter_add_gather`."""
    if ids.base is not None or ids.dtype not in _IDS or ids.ndim != 1:
        raise TypeError("prove_ids takes a 1-D int32 or intp array that owns its data")
    if not _within(ids, bound):
        raise IndexError("prove_ids: vertex id out of range")
    ids.flags.writeable = False
    # the owner's death calls ``_PROVEN.pop(key, ref)``: its entry goes with it
    _PROVEN[id(ids)] = (weakref.ref(ids, functools.partial(_PROVEN.pop, id(ids))), bound)


def _proven(ids: np.ndarray, size: int) -> bool:
    """O(1): ``ids`` view a proven owner that is still frozen, at its dtype and
    alignment (so each id is one of the owner's), and the bound fits ``size``."""
    owner = ids if ids.base is None else ids.base
    entry = _PROVEN.get(id(owner))
    return (
        entry is not None and entry[1] <= size and entry[0]() is owner
        and not owner.flags.writeable and ids.dtype == owner.dtype and ids.flags.aligned
    )


def scatter_add_gather(
    acc: np.ndarray, dst: np.ndarray, x: np.ndarray, src: np.ndarray, data=None
) -> None:
    """``acc[dst[k]] += x[src[k]]`` (given ``data``, ``+= data[k] *
    x[src[k]]``) for ``k`` ascending, in place: ``np.add.at(acc, dst,
    x[src])`` (``data * x[src]``) bit for bit, as one compiled loop (scipy's
    COO mat-vec ``y[row[k]] += data[k] * x[col[k]]``, unit ``data`` by
    default) and without the |E| gather temporary.  With real ``data`` that
    holds only while the loop's multiply-add is not contracted into an FMA,
    which ``tests/properties/test_prop_scatter_add.py`` probes by name.

    That loop checks nothing and silently *copies* an argument whose dtype
    or layout it dislikes (a copied ``acc`` loses the write), so all of it
    is refused here, before ``acc`` is touched: ``TypeError`` unless
    ``acc``/``x``/``data`` are 1-D C-contiguous ``float64`` (``acc`` aligned
    and writeable) and ``dst``/``src`` C-contiguous ids, both ``int32`` or
    both ``intp`` (the loop's two instantiations), all three of one length;
    ``ValueError`` if ``acc`` may overlap ``x`` or ``data``
    (the fused loop would read what it just wrote: ``SigmaOp``'s shape stays
    on ``np.add.at``); ``IndexError`` for an id outside ``[0, size)``.  Only
    this *fused* form beats ``ufunc.at``, so min/or reductions stay there.

    The range check scans each id array with one ``argmax``, unless
    :func:`_proven` trusts it in O(1): a full-frontier phase's slices of a
    built COO's ids, which :func:`prove_ids` proved and froze.
    """
    try:
        nnz = dst.size
        ok = (
            acc.dtype == x.dtype == _F64 and dst.dtype == src.dtype and dst.dtype in _IDS
            and acc.ndim == x.ndim == dst.ndim == src.ndim == 1 and src.size == nnz
            and acc.flags.carray and x.flags.c_contiguous
            and dst.flags.c_contiguous and src.flags.c_contiguous
            and (data is None or data.dtype == _F64 and data.shape == (nnz,)
                 and data.flags.c_contiguous)
        )
    except AttributeError:  # not arrays at all
        ok = False
    if not ok:
        raise TypeError(
            "scatter_add_gather needs 1-D C-contiguous arrays: a writeable float64 acc, "
            "a float64 x, dst and src both int32 or both intp, and a float64 data of one length"
        )
    if np.may_share_memory(acc, x) or (data is not None and np.may_share_memory(acc, data)):
        raise ValueError("scatter_add_gather: acc must not share memory with x or data")
    if not (
        (_proven(dst, acc.size) or _within(dst, acc.size))
        and (_proven(src, x.size) or _within(src, x.size))
    ):
        raise IndexError("scatter_add_gather: vertex id out of range")
    if data is not None:
        return coo_matvec(nnz, dst, src, data, x, acc)
    chunk = _ONES.size
    if nnz <= chunk:  # one chunk (every partition-sized batch and fused run): no slicing
        return coo_matvec(nnz, dst, src, _ONES, x, acc)
    for k in range(0, nnz, chunk):
        n = min(chunk, nnz - k)
        coo_matvec(n, dst[k : k + n], src[k : k + n], _ONES, x, acc)


# ----------------------------------------------------------------------
# what a task owns: the one definition of an operator's state and of the
# slice of it a destination range [lo, hi) may write
# ----------------------------------------------------------------------
def state_arrays(op: EdgeOperator) -> dict[str, np.ndarray]:
    """The operator's array state: every ndarray attribute, by name."""
    return {key: value for key, value in vars(op).items() if isinstance(value, np.ndarray)}


def vertex_length(array: np.ndarray, n: int) -> bool:
    """Whether ``array`` holds one leading-axis entry per vertex — the
    arrays that partitioning by destination cuts into disjoint slices."""
    return array.ndim >= 1 and array.shape[0] == n


class WriteSet:
    """What a task over the destination range ``[lo, hi)`` owns of ``op``.

    ``slices`` are views of ``[lo, hi)`` of every vertex-length state
    array, in name order — disjoint from every other task's, which is the
    contract supervised rollback, journal digests and the threads
    backend's in-place writes all rest on.  ``views``
    adds every other state array, whole: no task can be proved to own a
    part of those, so a snapshot keeps all of each and a digest none.
    """

    def __init__(self, op: EdgeOperator, n: int, lo: int, hi: int) -> None:
        arrays = state_arrays(op)
        self.slices = {
            key: arrays[key][lo:hi] for key in sorted(arrays) if vertex_length(arrays[key], n)
        }
        self.views = {**arrays, **self.slices}

    def digest(self, saved: dict[str, np.ndarray] | None = None) -> int:
        """CRC32 over the slices' bytes in C order — or over a
        :meth:`snapshot`'s copies of them, the same bytes as the range held
        when it was taken: read in place where a slice is C-contiguous
        (``zlib`` rejects any other buffer), copied by ``tobytes()`` where
        it is not."""
        crc = 0
        for key, view in self.slices.items():
            view = view if saved is None else saved[key]
            crc = zlib.crc32(view if view.flags.c_contiguous else view.tobytes(), crc)
        return crc

    def snapshot(self) -> dict[str, np.ndarray]:
        return {key: view.copy() for key, view in self.views.items()}

    def restore(self, saved: dict[str, np.ndarray]) -> None:
        """Write a :meth:`snapshot` of the same range back **in place**."""
        for key, value in saved.items():
            self.views[key][...] = value


def overrides_snapshot_hooks(cls: type) -> bool:
    """Whether the operator class ``cls`` overrides both ``snapshot`` and
    ``restore``.  One hook alone pairs a custom snapshot with the inherited
    array ``restore`` (or the reverse), which cannot roll back a container;
    the blind-spot check and the supervisor's rollback both ask this one
    question."""
    return all(getattr(cls, hook) is not getattr(EdgeOperator, hook) for hook in _SNAPSHOT_HOOKS)


def snapshot_blind_spots(op: EdgeOperator) -> list[str]:
    """Attribute names the default :meth:`EdgeOperator.snapshot` would miss.

    Returns the operator's :data:`MUTABLE_NON_ARRAY_TYPES` attributes
    unless it overrides both hooks (:func:`overrides_snapshot_hooks`), in
    which case it is trusted to cover its own state.
    """
    if overrides_snapshot_hooks(type(op)):
        return []
    return [
        key
        for key, value in vars(op).items()
        if isinstance(value, MUTABLE_NON_ARRAY_TYPES)
    ]


def validated_cond(op: EdgeOperator, dst_ids: np.ndarray) -> np.ndarray | None:
    """Call ``op.cond(dst_ids)`` and enforce the mask contract.

    The shared guard of all four traversal kernels: the result must be
    ``None`` or a boolean array parallel to ``dst_ids``.  Anything else —
    most dangerously an *integer index* array, which fancy-indexing would
    silently accept as a selection — raises
    :class:`~repro.errors.OperatorContractError`.
    """
    mask = op.cond(dst_ids)
    if mask is None:
        return None
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise OperatorContractError(
            f"{type(op).__name__}.cond() must return None or a boolean mask, "
            f"got dtype {mask.dtype}"
        )
    if mask.shape != dst_ids.shape:
        raise OperatorContractError(
            f"{type(op).__name__}.cond() mask has shape {mask.shape}, "
            f"not parallel to dst_ids with shape {dst_ids.shape}"
        )
    return mask
