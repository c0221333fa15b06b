"""Batched (vectorised) exact LRU stack-distance kernels.

This module is the numpy engine behind :func:`repro.memsim.reuse.stack_distances`
and the set-associative simulator in :mod:`repro.memsim.cache`.  It computes
the same quantity as the scalar Bennett–Kruskal/Fenwick loop — the number of
*distinct* addresses between consecutive accesses to the same address — but
offline, as a handful of whole-trace array passes instead of one Python
iteration per access.

Formulation
-----------
Let ``prev[i]`` be the position of the previous access to ``trace[i]``
(-1 for a cold access).  The stack distance of a live access is::

    d[i] = (i - prev[i] - 1) - R[i]

where ``R[i]`` counts positions ``j`` in ``(prev[i], i)`` that are *not* the
last occurrence of their address before ``i`` — equivalently, live positions
``j < i`` with ``prev[j] > prev[i]``.  ``R`` is a dominance count, computed by
a dyadic (bit-by-bit merge) pass over the positions sorted by ``prev`` value:
at each of ``log2`` levels, every element counts how many elements of the
other half of its group precede it, using one ``cumsum`` and one scatter.

Two exact paths implement the dominance count:

* **chunked** (:func:`_chunked_distances`) — positions are split into chunks
  of ``C``; within a chunk the dyadic pass runs over only ``log2(C)`` levels
  with cache-resident scatters, and cross-chunk contributions are recovered
  from per-chunk *boundary snapshots* (the sorted last-occurrence positions of
  every address before each chunk boundary) with a single batched
  ``searchsorted``.  Fastest when the address universe ``u`` is small enough
  that the ``K x u`` snapshot matrix stays cache-friendly (graph traces:
  thousands of distinct lines over ~10^6 accesses).
* **global** (:func:`_global_distances`) — one dyadic pass over all
  ``log2(n)`` levels.  No snapshot matrix, so it stays fast for traces with
  huge address universes where the chunked path would thrash.

:func:`stack_distance_kernel` picks the path from the measured universe size;
both are bit-identical to the scalar reference (property-tested in
``tests/properties/test_prop_memsim_vector.py``).

Set-associative reduction
-------------------------
A set-associative LRU cache partitions addresses by ``addr % num_sets`` and
runs an independent LRU stack per set.  Stably sorting the trace by set id
concatenates the per-set subtraces while preserving their internal order;
because an address only ever appears in its own set's segment, plain stack
distances on the *permuted* trace are exactly the per-set stack distances
(:func:`set_distances`).  An access misses iff it is cold or its per-set
distance reaches the associativity — so one pass answers every associativity
sharing a set count (the Mattson inclusion property, per set).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "COLD",
    "stack_distance_kernel",
    "set_distances",
    "set_order",
]

#: stack distance reported for cold (first) accesses.
COLD = -1

_I32 = np.int32

#: default chunk length of the chunked path (power of two).
DEFAULT_CHUNK = 8192
#: chunk lengths tried, ascending; bounded by the int32 packing of
#: ``accumulator << log2(C) | local_index`` (2 * 15 bits < 31).
_CHUNK_CHOICES = (8192, 16384, 32768)
#: ceiling on boundary-snapshot matrix cells (K * u int32 entries) before
#: the chunked path falls back to the global dyadic pass.
_SNAPSHOT_CELL_BUDGET = 1 << 23


def _sorted_positions(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions stably sorted by ``values`` plus the sorted values.

    Fast path packs ``(value - min) << ceil(log2 n) | position`` into one
    int64 key and uses a plain (unstable) sort — the distinct position bits
    make keys unique, which implies stability — falling back to a stable
    argsort when the value span would overflow the packing.
    """
    n = values.size
    shift = max(1, n - 1).bit_length()
    vmin = int(values.min())
    span = int(values.max()) - vmin
    if span < (1 << (62 - shift)):
        key = ((values - vmin).astype(np.int64) << shift) | np.arange(n, dtype=np.int64)
        key.sort()
        order = (key & ((1 << shift) - 1)).astype(np.int64)
        sval = (key >> shift) + vmin
    else:
        order = np.argsort(values, kind="stable")
        sval = values[order]
    return order, sval


def _prev_next_ids(trace: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Per-position previous/next occurrence and compact address ids.

    Returns ``(prev, nxt, ids, u)`` where ``prev[i]`` / ``nxt[i]`` are the
    positions of the adjacent accesses to the same address (-1 / n when
    none), ``ids`` maps each position to a compact address id in
    ``[0, u)``, and ``u`` is the number of distinct addresses.
    """
    n = trace.size
    order, sval = _sorted_positions(trace)
    order32 = order.astype(_I32)
    prev = np.full(n, -1, dtype=_I32)
    nxt = np.full(n, n, dtype=_I32)
    same = sval[1:] == sval[:-1]
    prev[order32[1:][same]] = order32[:-1][same]
    nxt[order32[:-1][same]] = order32[1:][same]
    ids = np.empty(n, dtype=_I32)
    newv = np.empty(n, dtype=_I32)
    newv[0] = 0
    np.cumsum(~same, out=newv[1:])
    ids[order] = newv
    return prev, nxt, ids, int(newv[-1]) + 1


def _chunked_distances(
    prev: np.ndarray, ids: np.ndarray, u: int, chunk: int
) -> np.ndarray:
    """Chunk-decomposed dominance counting (see module docstring).

    For a live access ``i`` in chunk ``k`` (chunk start ``T = k * chunk``)::

        d[i] = (i - prev[i] - 1) - RC2[i] - Cross[i]

    ``RC2[i] = #{j in [T, i) : prev[j] > prev[i]}`` comes from the
    chunk-local dyadic pass (cross-chunk pairs contribute nothing to it
    because the initial order groups positions by chunk).  When
    ``prev[i] < T``, ``Cross[i]`` counts positions in ``(prev[i], T)`` that
    are not their address's last occurrence before ``T``; with
    ``S_k = {last occurrence before T of each address seen before T}``
    (the boundary snapshot) this equals
    ``(T - 1 - prev[i]) - |{q in S_k : q > prev[i]}|``.
    """
    n = prev.size
    cbits = chunk.bit_length() - 1
    num_chunks = (n + chunk - 1) // chunk
    m = num_chunks * chunk
    # Initial order: positions sorted by (chunk, prev value, position).
    # Cold positions take value prev + 1 == 0, smaller than every live
    # value, so the strict > comparison never counts them; virtual pads
    # fill the last partial chunk the same way.  Real and pad local
    # indices tile [0, C) per chunk, so the fully sorted order is the
    # position order and results are read back without a gather.
    vbits = (n + 1).bit_length()
    idx = np.arange(n, dtype=np.int64)
    key = (
        ((idx >> cbits) << (vbits + cbits))
        | ((prev.astype(np.int64) + 1) << cbits)
        | (idx & (chunk - 1))
    )
    if m > n:
        padloc = np.arange(n & (chunk - 1), chunk, dtype=np.int64)
        key = np.concatenate([key, ((n >> cbits) << (vbits + cbits)) | padloc])
    key.sort()
    # Packed per-element state: dominance accumulator (high bits) | local
    # index within the chunk (low cbits); both stay < C so the pack fits
    # int32 and each level moves one array instead of two.
    st = (key & (chunk - 1)).astype(_I32)
    del key
    ar = np.arange(m, dtype=_I32)
    buf = np.empty(m, dtype=_I32)
    c = np.empty(m, dtype=_I32)
    t = np.empty(m, dtype=_I32)
    nb = np.empty(m, dtype=_I32)
    s8 = np.empty(m, dtype=np.int8)
    for b in range(cbits - 1, -1, -1):
        group_mask = _I32((1 << (b + 1)) - 1)
        half = _I32(1 << b)
        np.right_shift(st, _I32(b), out=c)
        np.bitwise_and(c, _I32(1), out=c)
        bit = c.astype(np.int8)
        # ones_before: within-group exclusive running count of set bits.
        np.cumsum(bit, out=c)
        np.subtract(c, bit, out=c)
        grouped = c.reshape(-1, 1 << (b + 1))
        np.subtract(grouped, grouped[:, :1], out=grouped)
        # q = half + ones_before - pos_in_group == half - zeros_before:
        # how many zero-bit elements of the group still follow this one.
        np.bitwise_and(ar, group_mask, out=t)
        np.subtract(c, t, out=t)
        np.add(t, half, out=t)
        np.multiply(t, bit, out=t)  # bit * q
        np.left_shift(t, _I32(cbits), out=nb)
        np.add(st, nb, out=st)  # accumulator += bit * q
        # dest = pos + bit * q + (bit - 1) * ones_before: stable split of
        # each group into its zero half followed by its one half.
        np.subtract(bit, np.int8(1), out=s8)
        np.multiply(c, s8, out=nb)
        np.add(t, nb, out=t)
        np.add(t, ar, out=t)
        buf[t] = st
        st, buf = buf, st
    rc2 = st[:n] >> cbits
    # Boundary snapshots: last occurrence of each address before every
    # chunk boundary, sorted per row for the batched searchsorted.
    snap = np.full((num_chunks, u), -1, dtype=_I32)
    lastcol = np.full(u, -1, dtype=_I32)
    pos = np.arange(n, dtype=_I32)
    for k in range(1, num_chunks):
        lo, hi = (k - 1) * chunk, min(k * chunk, n)
        lastcol[ids[lo:hi]] = pos[lo:hi]
        snap[k] = lastcol
    snap.sort(axis=1)
    sentinels = np.count_nonzero(snap == -1, axis=1).astype(np.int64)
    seen = u - sentinels
    # One searchsorted over all rows: offset row k's values by k * n so the
    # concatenated array stays sorted and queries stay within their row.
    concat = (
        snap.astype(np.int64) + (np.arange(num_chunks, dtype=np.int64) * n)[:, None]
    ).ravel()
    out = np.full(n, COLD, dtype=np.int64)
    live = np.flatnonzero(prev >= 0)
    x = prev[live].astype(np.int64)
    window = live - x - 1
    k_of = live >> cbits
    t_start = (k_of << cbits).astype(np.int64)
    cross = x < t_start
    cx = x[cross]
    ck = k_of[cross].astype(np.int64)
    le_x = (
        np.searchsorted(concat, ck * n + cx, side="right") - ck * u - sentinels[ck]
    )
    cross_term = (t_start[cross] - 1 - cx) - (seen[ck] - le_x)
    d = window - rc2[live]
    d[cross] -= cross_term
    out[live] = d
    return out


def _global_distances(prev: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Single dyadic pass over all live positions, any address universe.

    ``R[i] = #{live j < i : prev[j] > prev[i]}`` is an inversion count of
    the live positions read in ascending order of their ``prev`` value —
    and that value order is free: position ``p`` has the (fidx-compacted)
    successor ``nxt[p]`` exactly when ``prev[nxt[p]] == p``, so walking
    ``p`` ascending enumerates live positions by ascending ``prev``.
    """
    n = prev.size
    out = np.full(n, COLD, dtype=np.int64)
    live = prev >= 0
    num_live = int(np.count_nonzero(live))
    live_idx = np.flatnonzero(live)
    window = live_idx - prev[live_idx] - 1
    if num_live <= 1:
        out[live_idx] = window
        return out
    fidx = np.cumsum(live, dtype=_I32) - 1
    has_next = nxt < n
    levels = (num_live - 1).bit_length()
    m = 1 << levels
    cur = np.empty(m, dtype=_I32)
    cur[:num_live] = fidx[nxt[has_next]]
    cur[num_live:] = np.arange(num_live, m, dtype=_I32)
    acc = np.zeros(m, dtype=_I32)
    ar = np.arange(m, dtype=_I32)
    cbuf = np.empty(m, dtype=_I32)
    abuf = np.empty(m, dtype=_I32)
    for b in range(levels - 1, -1, -1):
        group_mask = _I32((1 << (b + 1)) - 1)
        half = _I32(1 << b)
        bit = (cur >> _I32(b)) & _I32(1)
        c = np.cumsum(bit, dtype=_I32)
        c -= bit
        grouped = c.reshape(-1, 1 << (b + 1))
        ones_before = (grouped - grouped[:, :1]).reshape(-1)
        pos_in_group = ar & group_mask
        q = half + ones_before - pos_in_group
        acc += bit * q
        dest = (ar - ones_before) + bit * (q + ones_before)
        cbuf[dest] = cur
        abuf[dest] = acc
        cur, cbuf = cbuf, cur
        acc, abuf = abuf, acc
    counts = np.empty(m, dtype=_I32)
    counts[cur] = acc
    out[live_idx] = window - counts[:num_live]
    return out


def _pick_chunk(n: int, u: int) -> int | None:
    """Chunk length for the chunked path, or ``None`` to go global."""
    for chunk in _CHUNK_CHOICES:
        num_chunks = (n + chunk - 1) // chunk
        if u * num_chunks <= _SNAPSHOT_CELL_BUDGET:
            return chunk
    return None


def stack_distance_kernel(
    trace: np.ndarray, *, chunk: int | None = None, path: str = "auto"
) -> np.ndarray:
    """Exact LRU stack distance of every access, vectorised.

    Bit-identical to the scalar Bennett–Kruskal reference
    (``tests/references.py``).  ``path``
    forces ``"chunked"`` or ``"global"`` (used by the differential tests);
    ``"auto"`` picks by address-universe size.  ``chunk`` overrides the
    chunk length (a power of two >= 4) on the chunked path.
    """
    trace = np.ascontiguousarray(np.asarray(trace))
    n = trace.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n >= 1 << 31:  # pragma: no cover - int32 position packing
        raise ValueError("trace too long for the vectorised kernel (>= 2^31)")
    prev, nxt, ids, u = _prev_next_ids(trace)
    if path == "global":
        return _global_distances(prev, nxt)
    if chunk is None:
        chunk = _pick_chunk(n, u)
        if chunk is None and path == "chunked":
            chunk = _CHUNK_CHOICES[-1]
    elif chunk < 4 or chunk & (chunk - 1):
        raise ValueError("chunk must be a power of two >= 4")
    if path not in ("auto", "chunked"):
        raise ValueError(f"unknown kernel path {path!r}")
    if chunk is None:
        return _global_distances(prev, nxt)
    # Shrink the chunk for short traces: one partially-padded chunk.
    while chunk >= 8 and chunk >= 2 * n:
        chunk >>= 1
    return _chunked_distances(prev, ids, u, chunk)


def set_order(trace: np.ndarray, num_sets: int) -> np.ndarray:
    """Permutation stably sorting ``trace`` positions by ``trace % num_sets``."""
    sets = np.asarray(trace, dtype=np.int64) % num_sets
    order, _ = _sorted_positions(sets)
    return order


def set_distances(
    trace: np.ndarray, num_sets: int, *, chunk: int | None = None, path: str = "auto"
) -> np.ndarray:
    """Per-access stack distance *within the access's cache set*.

    ``d[i]`` counts the distinct addresses mapping to set
    ``trace[i] % num_sets`` accessed since the previous access to
    ``trace[i]`` (:data:`COLD` when there is none).  An LRU cache with
    ``ways`` lines per set misses exactly on ``d[i] == COLD`` or
    ``d[i] >= ways``.
    """
    if num_sets < 1:
        raise ValueError("num_sets must be >= 1")
    trace = np.ascontiguousarray(np.asarray(trace))
    if num_sets == 1 or trace.size == 0:
        return stack_distance_kernel(trace, chunk=chunk, path=path)
    order = set_order(trace, num_sets)
    permuted = stack_distance_kernel(trace[order], chunk=chunk, path=path)
    out = np.empty(trace.size, dtype=np.int64)
    out[order] = permuted
    return out
