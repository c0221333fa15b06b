"""On-disk P×P edge grid for out-of-core execution (GridGraph-style).

GridGraph (Zhu et al., USENIX ATC'15) answers the paper's §IV.A capacity
wall: preprocess the edge list into a 2-level grid of P×P blocks — block
``(i, j)`` holds the edges whose source falls in vertex stripe ``i`` and
whose destination falls in stripe ``j`` — then stream blocks from disk
under a user-supplied memory budget instead of holding a whole layout
resident.  This module is that subsystem:

* :func:`preprocess_grid` shards an edge list into per-block files, each
  framed exactly like the checkpoint store's shards (magic + CRC32 +
  length header; :mod:`repro.durable`), plus a manifest committed
  atomically *last* — so a
  crash mid-preprocess leaves an invisible, uncommitted grid, never a
  torn one.
* :class:`GridStore` opens a committed grid and serves blocks through a
  :class:`~repro.core.budget.MemoryBudget` governor: admitted blocks are
  charged against the budget, least-recently-used blocks are evicted to
  make room, and the high-water mark proves residency never exceeded the
  budget.  Reads are CRC-verified; a torn block is *repaired on read* by
  re-sharding it from the edge list the grid was built from (in memory,
  or re-loaded via the ``source`` recorded in the manifest).
* :func:`choose_grid_stripes` picks the grid granularity from the
  budget, so a handful of blocks always fits resident ("Making Caches
  Work for Graph Analytics" applies the same working-set sizing to the
  LLC; here the budget plays the cache).

Block payloads are deterministic: edges sorted by (source, destination)
with one packed-key sort (:func:`~repro.graph.edgelist.sorted_pairs`), so
each source stripe is a contiguous slice; sources first then destinations,
each as a contiguous ``VID_DTYPE`` array — the same src-major order the
in-memory COO layout uses, which is what keeps streamed execution
bit-identical to the in-RAM path.

Fault injection: a ``fault_plan`` is any object with
``take(kinds, index) -> kind | None`` (:class:`repro.resilience.FaultPlan`
is the one that exists); :data:`GRID_WRITE_FAULT_KINDS` events fire on
the *Nth block write*, :data:`IO_FAULT_KINDS` on the *Nth block read*.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections import deque
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .._types import BYTES_PER_VID, VID_DTYPE
from ..core.budget import MemoryBudget
from ..durable import flip_last_byte, read_framed, write_framed
from ..errors import (
    CheckpointError,
    DiskFullError,
    GridError,
    GridIOError,
    TornBlockError,
    ValidationError,
)
from ..graph.edgelist import EdgeList, sorted_pairs
from ..partition.vertex_partition import VertexPartition

__all__ = [
    "GridStore",
    "GridStats",
    "BlockRead",
    "preprocess_grid",
    "choose_grid_stripes",
    "grid_stripe_boundaries",
    "GRID_MANIFEST",
    "STRIPE_MODES",
    "IO_FAULT_KINDS",
    "GRID_WRITE_FAULT_KINDS",
]

#: fault kinds injected into block *reads*; an event's ``iteration``
#: indexes the Nth block read the store issues.
IO_FAULT_KINDS = ("io_error", "slow_io")

#: fault kinds injected into block *writes* during preprocessing; an
#: event's ``iteration`` indexes the Nth block write.
GRID_WRITE_FAULT_KINDS = ("disk_full", "torn_block")

#: the manifest file name; its presence is the grid's commit point.
GRID_MANIFEST = "grid.mf"

_BLOCK_MAGIC = b"RPRGBLK1"
_GRID_MAGIC = b"RPRGMAN1"

#: bounded in-place re-read attempts before a read error is escalated.
_MAX_READ_ATTEMPTS = 3


def _block_filename(i: int, j: int) -> str:
    return f"block-{i:04d}-{j:04d}.grb"


#: stripe boundary assignment modes: equal vertex ranges, or BBC-style
#: degree-balanced ranges that equalise incident-edge weight per stripe.
STRIPE_MODES = ("vertex", "degree")


def grid_stripe_boundaries(
    edges: EdgeList, num_stripes: int, stripe_mode: str = "vertex"
) -> VertexPartition:
    """Stripe boundary assignment for a P×P grid.

    ``"vertex"`` cuts equal vertex ranges (GridGraph's default).
    ``"degree"`` weights each vertex by its incident-edge count
    (out-degree + in-degree, the BBC balance criterion) so skewed graphs
    stop concentrating most edges in one giant block that defeats the
    LRU budget — each stripe then owns roughly equal edge mass.
    """
    if stripe_mode not in STRIPE_MODES:
        raise ValidationError(
            f"unknown stripe mode {stripe_mode!r}; expected one of {STRIPE_MODES}"
        )
    n = max(edges.num_vertices, 1)
    if stripe_mode == "vertex":
        return VertexPartition.equal_vertices(n, num_stripes)
    weights = (
        np.bincount(edges.src, minlength=n) + np.bincount(edges.dst, minlength=n)
    ).astype(np.float64)
    return VertexPartition.from_weights(weights, num_stripes)


#: average blocks :func:`choose_grid_stripes` sizes the budget for, and
#: the stripe count it never exceeds.
TARGET_RESIDENT_BLOCKS = 4
MAX_STRIPES = 64


def choose_grid_stripes(
    num_vertices: int, num_edges: int, budget_bytes: int | None = None
) -> int:
    """Grid granularity P such that ~:data:`TARGET_RESIDENT_BLOCKS` blocks
    fit the budget.

    The streamed working set is a few blocks (the in-flight one plus the
    LRU cache's recency tail), so P is the smallest stripe count making
    that many average blocks — COO bytes over P² — fit in
    ``budget_bytes``.  ``None`` (no budget, spill directory only) picks a
    modest default granularity.
    """
    cap = max(1, min(MAX_STRIPES, max(num_vertices, 1)))
    if budget_bytes is None:
        return min(4, cap)
    if budget_bytes <= 0:
        raise ValidationError("budget_bytes must be positive")
    coo_bytes = 2 * num_edges * BYTES_PER_VID
    if coo_bytes <= 0:
        return 1
    stripes = int(np.ceil(np.sqrt(TARGET_RESIDENT_BLOCKS * coo_bytes / budget_bytes)))
    return max(1, min(stripes, cap))


class GridStats:
    """Cumulative counters of one grid store's streaming activity."""

    def __init__(self) -> None:
        #: blocks actually read from disk (cache misses).
        self.block_reads = 0
        #: payload bytes those reads transferred.
        self.bytes_read = 0
        #: blocks served from the resident LRU cache.
        self.cache_hits = 0
        #: transient read errors recovered by the bounded re-read loop.
        self.io_retries = 0
        #: reads flagged slow by the fault plan (watchdog fodder).
        self.slow_reads = 0
        #: torn blocks repaired on read from the recorded source.
        self.repairs = 0
        #: block writes retried after a (simulated) full disk.
        self.write_retries = 0
        #: blocks skipped by selective scheduling (empty source frontier).
        self.blocks_skipped = 0
        #: over-budget blocks streamed through without entering the cache.
        self.uncached_reads = 0
        #: blocks served from the background read-ahead thread.
        self.prefetched = 0

    def summary(self) -> str:
        return (
            f"reads {self.block_reads} ({self.bytes_read / 1024:.1f} KiB), "
            f"cache hits {self.cache_hits}, prefetched {self.prefetched}, "
            f"skipped {self.blocks_skipped}, "
            f"repairs {self.repairs}, io retries {self.io_retries}, "
            f"slow reads {self.slow_reads}, write retries {self.write_retries}"
        )


class BlockRead(NamedTuple):
    """One block served by :meth:`GridStore.read_block`."""

    src: np.ndarray
    dst: np.ndarray
    #: payload bytes transferred from disk (0 on a cache hit).
    nbytes: int
    #: whether the fault plan flagged this read slow (watchdog input).
    slow: bool


def _block_payload(src: np.ndarray, dst: np.ndarray) -> bytes:
    return (
        np.ascontiguousarray(src, dtype=VID_DTYPE).tobytes()
        + np.ascontiguousarray(dst, dtype=VID_DTYPE).tobytes()
    )


def _shard_edges(
    edges: EdgeList, stripes: VertexPartition
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each source stripe's ``(src, dst)`` edges, sorted by (src, dst): after
    one sort, stripe row ``i`` is a contiguous slice."""
    src, dst = sorted_pairs(edges.src, edges.dst)
    rows = np.searchsorted(src, stripes.boundaries)
    return [(src[lo:hi], dst[lo:hi]) for lo, hi in zip(rows[:-1], rows[1:])]


def preprocess_grid(
    edges: EdgeList,
    directory: str | Path,
    num_stripes: int,
    *,
    stripe_mode: str = "vertex",
    fault_plan=None,
    source: dict | None = None,
    events: list[str] | None = None,
) -> tuple[dict, int]:
    """Shard ``edges`` into a committed P×P grid under ``directory``.

    Per-block files are written first (each CRC32-framed); the manifest
    — recording stripe boundaries and every block's file, edge count,
    byte count and payload CRC — is written last with the checkpoint
    store's atomic tmp+fsync+replace idiom, making it the commit point.
    ``source`` optionally records where the edges came from (a file path
    or a dataset spec) so :class:`GridStore` can repair torn blocks on
    read without the in-memory edge list.  Returns the manifest dict and
    how many block writes had to be retried.
    """
    if num_stripes < 1:
        raise ValidationError("num_stripes must be >= 1")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stripes = grid_stripe_boundaries(edges, num_stripes, stripe_mode)
    events = events if events is not None else []
    blocks = []
    write_index = write_retries = 0
    for i, (row_src, row_dst) in enumerate(_shard_edges(edges, stripes)):
        pid_dst = stripes.partition_of(row_dst)
        for j in range(num_stripes):
            sel = pid_dst == j
            count = int(np.count_nonzero(sel))
            if count == 0:
                continue
            payload = _block_payload(row_src[sel], row_dst[sel])
            path = directory / _block_filename(i, j)
            attempts = _write_block(
                path, payload, i, j,
                fault_plan=fault_plan, write_index=write_index, events=events,
            )
            write_index += attempts
            write_retries += attempts - 1
            blocks.append(
                {
                    "i": i,
                    "j": j,
                    "file": path.name,
                    "edges": count,
                    "bytes": len(payload),
                    "crc32": zlib.crc32(payload),
                }
            )
    manifest = {
        "version": 1,
        "num_vertices": edges.num_vertices,
        "num_edges": edges.num_edges,
        "num_stripes": num_stripes,
        "stripe_mode": stripe_mode,
        "boundaries": [int(b) for b in stripes.boundaries],
        "source": source,
        "blocks": blocks,
    }
    write_framed(
        directory / GRID_MANIFEST,
        _GRID_MAGIC,
        json.dumps(manifest, sort_keys=True).encode("utf-8"),
    )
    return manifest, write_retries


def _write_block(
    path: Path,
    payload: bytes,
    i: int,
    j: int,
    *,
    fault_plan,
    write_index: int,
    events: list[str],
) -> int:
    """Write one framed block, surviving one injected full-disk event.

    Returns how many write attempts it took (each consumes one write
    index).  A ``torn_block`` event lets the write complete, then flips
    the file's last byte — caught later by the CRC check and repaired on
    read.
    """
    for attempt in range(2):
        kind = (
            fault_plan.take(GRID_WRITE_FAULT_KINDS, write_index + attempt)
            if fault_plan is not None
            else None
        )
        if kind == "disk_full":
            tmp = path.with_name(path.name + ".tmp")
            tmp.unlink(missing_ok=True)
            if attempt:
                raise DiskFullError(
                    f"spill device full writing grid block ({i},{j})"
                )
            events.append(
                f"disk full writing block ({i},{j}); pruned partial write, retrying"
            )
            continue
        write_framed(path, _BLOCK_MAGIC, payload)
        if kind == "torn_block":
            flip_last_byte(path)
            events.append(f"block ({i},{j}) written torn (injected)")
        return attempt + 1
    raise AssertionError("unreachable")


class GridStore:
    """A committed on-disk grid, streamed under a memory budget.

    Construct with :meth:`build` (shard an in-memory edge list — the
    supervisor's spill rung) or :meth:`open` (a grid preprocessed
    earlier with ``python -m repro grid preprocess``).
    """

    def __init__(
        self,
        directory: str | Path,
        manifest: dict,
        *,
        budget: MemoryBudget | int | None = None,
        fault_plan=None,
        edges: EdgeList | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.num_vertices = int(manifest["num_vertices"])
        self.num_edges = int(manifest["num_edges"])
        self.num_stripes = int(manifest["num_stripes"])
        self.stripes = VertexPartition(
            max(self.num_vertices, 1), np.asarray(manifest["boundaries"])
        )
        self.budget = budget if isinstance(budget, MemoryBudget) else MemoryBudget(budget)
        self.fault_plan = fault_plan
        self.stats = GridStats()
        #: human-readable I/O event history (repairs, retries, faults).
        self.events: list[str] = []
        #: stripe boundary mode the grid was sharded with (older grids
        #: predate the key and are always equal-vertex).
        self.stripe_mode = manifest.get("stripe_mode", "vertex")
        self._blocks = {(int(b["i"]), int(b["j"])): b for b in manifest["blocks"]}
        self._cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._edges = edges
        self._read_ops = 0
        self._prefetcher: _BlockPrefetcher | None = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        edges: EdgeList,
        directory: str | Path,
        *,
        num_stripes: int | None = None,
        stripe_mode: str = "vertex",
        budget: MemoryBudget | int | None = None,
        fault_plan=None,
        source: dict | None = None,
    ) -> "GridStore":
        """Shard ``edges`` into ``directory`` and open the result.

        Keeps the edge list in memory for repair-on-read, so torn blocks
        heal even without a ``source`` record.
        """
        budget_obj = budget if isinstance(budget, MemoryBudget) else MemoryBudget(budget)
        if num_stripes is None:
            num_stripes = choose_grid_stripes(
                edges.num_vertices, edges.num_edges, budget_obj.limit_bytes
            )
        events: list[str] = []
        manifest, write_retries = preprocess_grid(
            edges, directory, num_stripes, stripe_mode=stripe_mode,
            fault_plan=fault_plan, source=source, events=events,
        )
        store = cls(
            directory, manifest,
            budget=budget_obj, fault_plan=fault_plan, edges=edges,
        )
        store.events.extend(events)
        store.stats.write_retries += write_retries
        return store

    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        budget: MemoryBudget | int | None = None,
        fault_plan=None,
    ) -> "GridStore":
        """Open a committed grid; raises when the manifest is absent/torn."""
        directory = Path(directory)
        payload = read_framed(directory / GRID_MANIFEST, _GRID_MAGIC)
        manifest = json.loads(payload.decode("utf-8"))
        if manifest.get("version") != 1:
            raise GridError(
                f"unsupported grid manifest version {manifest.get('version')!r}"
            )
        return cls(directory, manifest, budget=budget, fault_plan=fault_plan)

    # ------------------------------------------------------------------
    def block_edges(self, i: int, j: int) -> int:
        """Edge count of block ``(i, j)`` (0 when the block is empty)."""
        entry = self._blocks.get((i, j))
        return int(entry["edges"]) if entry else 0

    def block_bytes(self, i: int, j: int) -> int:
        """Payload bytes of block ``(i, j)``."""
        entry = self._blocks.get((i, j))
        return int(entry["bytes"]) if entry else 0

    def total_bytes(self) -> int:
        """Total payload bytes across all blocks."""
        return sum(int(b["bytes"]) for b in self._blocks.values())

    # ------------------------------------------------------------------
    def read_block(self, i: int, j: int) -> BlockRead:
        """Serve block ``(i, j)``: prefetcher, cache, else disk.

        Transient read faults re-read in place (bounded attempts, then
        :class:`~repro.errors.GridIOError`); CRC failures trigger
        repair-on-read; the admitted block is charged to the budget,
        evicting LRU residents.  With read-ahead enabled, blocks the
        engine scheduled are served from the background reader — which
        ran this very same cache/fault/budget sequence for them, in
        schedule order, so the streaming state evolves identically.
        """
        key = (i, j)
        entry = self._blocks.get(key)
        if entry is None:
            empty = np.empty(0, dtype=VID_DTYPE)
            return BlockRead(empty, empty, 0, False)
        if self._prefetcher is not None:
            block = self._prefetcher.take(key)
            if block is not None:
                self.stats.prefetched += 1
                return block
            # Unscheduled key: take() waited for the reader to go idle,
            # so the synchronous path below is the only mutator again.
        return self._serve_block(key, entry)

    def _serve_block(self, key: tuple[int, int], entry: dict) -> BlockRead:
        """Cache-or-disk service of one block; the single-mutator path."""
        i, j = key
        if key in self._cache:
            self.stats.cache_hits += 1
            self.budget.touch(key)
            src, dst = self._cache[key]
            return BlockRead(src, dst, 0, False)
        payload, slow = self._fetch_payload(i, j, entry)
        n = int(entry["edges"])
        arr = np.frombuffer(payload, dtype=VID_DTYPE)
        src, dst = arr[:n], arr[n:]
        limit = self.budget.limit_bytes
        if limit is not None and len(payload) > limit:
            # A single block larger than the whole budget (heavy hub
            # stripe) is streamed through uncached rather than failing:
            # the cache governor never sees it, so the resident
            # high-water stays within budget.
            self.stats.uncached_reads += 1
            self.events.append(
                f"block ({i},{j}) exceeds the budget "
                f"({len(payload)} B > {limit} B); streaming uncached"
            )
        else:
            for evicted in self.budget.admit(key, len(payload)):
                self._cache.pop(evicted, None)
            self._cache[key] = (src, dst)
        self.stats.block_reads += 1
        self.stats.bytes_read += len(payload)
        return BlockRead(src, dst, len(payload), slow)

    def _fetch_payload(self, i: int, j: int, entry: dict) -> tuple[bytes, bool]:
        """One block's disk payload: fault injection, retries, CRC repair."""
        slow = False
        payload = None
        for _ in range(_MAX_READ_ATTEMPTS):
            kind = (
                self.fault_plan.take(IO_FAULT_KINDS, self._read_ops)
                if self.fault_plan is not None
                else None
            )
            self._read_ops += 1
            if kind == "io_error":
                self.stats.io_retries += 1
                self.events.append(
                    f"transient I/O error reading block ({i},{j}); re-reading"
                )
                continue
            if kind == "slow_io":
                slow = True
                self.stats.slow_reads += 1
                self.events.append(f"slow read of block ({i},{j})")
            payload = self._read_verified(i, j, entry)
            break
        if payload is None:
            raise GridIOError(
                f"grid block ({i},{j}) unreadable after "
                f"{_MAX_READ_ATTEMPTS} attempts"
            )
        return payload, slow

    # -- double-buffered read-ahead ------------------------------------
    def enable_prefetch(self, depth: int) -> None:
        """Start the background reader with ``depth`` read-ahead slots.

        ``depth <= 0`` is a no-op (synchronous reads).  In-flight
        read-ahead bytes are additionally bounded by the budget's
        reserved prefetch quota, so enabling read-ahead can never blow
        the memory discipline the budget proves.
        """
        if depth <= 0 or self._prefetcher is not None:
            return
        self._prefetcher = _BlockPrefetcher(self, depth)

    @property
    def prefetch_enabled(self) -> bool:
        return self._prefetcher is not None

    def schedule_reads(self, keys: list[tuple[int, int]]) -> None:
        """Hand the background reader the blocks the next stripe will
        consume, in consumption order.  Cancels any stale schedule first
        (a selective-scheduling skip or an aborted phase leaves one), so
        the reader never warms blocks the engine decided not to visit.
        No-op when read-ahead is disabled."""
        if self._prefetcher is not None:
            self._prefetcher.schedule(keys)

    def cancel_prefetch(self) -> None:
        """Drop any scheduled-but-unconsumed read-ahead."""
        if self._prefetcher is not None:
            self._prefetcher.cancel()

    def close(self) -> None:
        """Stop the background reader (idempotent; sync reads still work)."""
        if self._prefetcher is not None:
            self._prefetcher.close()
            self._prefetcher = None

    def _read_verified(self, i: int, j: int, entry: dict) -> bytes:
        """One disk read, CRC-checked against the manifest; repairs torn blocks."""
        path = self.directory / entry["file"]
        try:
            payload = read_framed(path, _BLOCK_MAGIC)
            if zlib.crc32(payload) != int(entry["crc32"]):
                raise CheckpointError(f"{path}: payload does not match manifest CRC")
        except CheckpointError:
            payload = self._repair_block(i, j, entry)
        return payload

    def _repair_block(self, i: int, j: int, entry: dict) -> bytes:
        """Re-shard one torn block from the source edges and rewrite it."""
        edges = self._source_edges()
        if edges is None:
            raise TornBlockError(
                f"grid block ({i},{j}) is corrupt and the manifest records "
                f"no loadable source to repair it from"
            )
        row_src, row_dst = _shard_edges(edges, self.stripes)[i]
        sel = self.stripes.partition_of(row_dst) == j
        payload = _block_payload(row_src[sel], row_dst[sel])
        if zlib.crc32(payload) != int(entry["crc32"]):
            raise TornBlockError(
                f"grid block ({i},{j}) is corrupt and the recorded source "
                f"no longer reproduces it (CRC mismatch)"
            )
        write_framed(self.directory / entry["file"], _BLOCK_MAGIC, payload)
        self.stats.repairs += 1
        self.events.append(f"repaired torn block ({i},{j}) from source")
        return payload

    def _source_edges(self) -> EdgeList | None:
        """The edge list to repair from: in-memory, else the manifest source."""
        if self._edges is not None:
            return self._edges
        spec = self.manifest.get("source")
        if not spec:
            return None
        try:
            if spec.get("kind") == "file":
                from ..graph import io as graph_io

                self._edges = graph_io.load(spec["path"])
            elif spec.get("kind") == "dataset":
                from ..graph import datasets

                self._edges = datasets.load(spec["name"], spec["scale"])
            else:
                return None
        except Exception:
            return None
        return self._edges

    # ------------------------------------------------------------------
    def verify(self) -> list[tuple[int, int]]:
        """CRC-check every block (no repair); returns the corrupt ones."""
        bad = []
        for (i, j), entry in sorted(self._blocks.items()):
            try:
                payload = read_framed(self.directory / entry["file"], _BLOCK_MAGIC)
                if zlib.crc32(payload) != int(entry["crc32"]):
                    raise CheckpointError("manifest CRC mismatch")
            except CheckpointError:
                bad.append((i, j))
        return bad

    def __repr__(self) -> str:
        return (
            f"GridStore({self.num_stripes}x{self.num_stripes}, "
            f"|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"{len(self._blocks)} blocks, {self.total_bytes()} B)"
        )


class _BlockPrefetcher:
    """Background reader double-buffering grid block reads.

    The engine announces each stripe's read list up front
    (:meth:`GridStore.schedule_reads`); the reader thread then executes
    those keys *strictly in schedule order* through the very same
    :meth:`GridStore._serve_block` path the synchronous loop uses —
    cache-hit classification, fault injection keyed on ``_read_ops``,
    CRC repair, LRU admission and eviction all happen reader-side, in
    the same sequence they would have happened without read-ahead.  The
    consumer only collects finished :class:`BlockRead` results, so the
    streaming state (cache contents, budget counters, fault schedule)
    evolves identically with and without prefetch — block k+1's disk
    read overlaps block k's compute, realising the cost model's
    ``max(compute, io)`` instead of ``compute + io``.

    Read-ahead is bounded two ways: at most ``depth`` unconsumed
    results, and in-flight payload bytes reserved against
    :meth:`MemoryBudget.reserve_prefetch` (released when the engine
    consumes the block), so the memory discipline the budget proves
    extends over the read-ahead slots.

    A failed read is delivered to the consumer as the raised exception
    and the rest of the schedule is dropped — the phase aborts either
    way, and the supervised retry re-schedules from scratch.  After an
    abort the reader may have fetched up to ``depth`` blocks the
    retried phase re-serves from cache; chaos tests therefore assert
    result bit-identity, not event-log equality.
    """

    def __init__(self, store: GridStore, depth: int) -> None:
        self.store = store
        self.depth = max(1, int(depth))
        self._cv = threading.Condition()
        self._queue: deque[tuple[int, int]] = deque()
        #: keys scheduled but not yet finished (queue + in-flight).
        self._scheduled: set[tuple[int, int]] = set()
        self._inflight: tuple[int, int] | None = None
        #: key -> ("ok", BlockRead, reserved_bytes) | ("err", exception)
        self._results: dict[tuple[int, int], tuple] = {}
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="grid-prefetch", daemon=True
        )
        self._thread.start()

    # -- consumer side --------------------------------------------------
    def schedule(self, keys) -> None:
        with self._cv:
            self._cancel_locked()
            fresh = [(int(i), int(j)) for i, j in keys]
            self._queue.extend(fresh)
            self._scheduled.update(fresh)
            self._cv.notify_all()

    def cancel(self) -> None:
        with self._cv:
            self._cancel_locked()

    def close(self) -> None:
        with self._cv:
            self._cancel_locked()
            self._closed = True
            self._cv.notify_all()
        self._thread.join()

    def take(self, key: tuple[int, int]) -> BlockRead | None:
        """The scheduled read for ``key`` (blocking), or ``None``.

        ``None`` means the key was never scheduled (or its schedule was
        cancelled); in that case this waits for the reader to go idle
        first, so the caller's synchronous read is the only
        cache/budget mutator.  Re-raises the reader's exception when
        the scheduled read failed.
        """
        with self._cv:
            while True:
                state = self._results.pop(key, None)
                if state is not None:
                    self._cv.notify_all()  # freed a read-ahead slot
                    if state[0] == "err":
                        raise state[1]
                    _, block, reserved = state
                    self.store.budget.release_prefetch(reserved)
                    return block
                if key not in self._scheduled:
                    while self._scheduled or self._inflight is not None:
                        self._cv.wait()
                    return None
                self._cv.wait()

    def _cancel_locked(self) -> None:
        for key in self._queue:
            self._scheduled.discard(key)
        self._queue.clear()
        while self._inflight is not None:
            self._cv.wait()
        for state in self._results.values():
            if state[0] == "ok":
                self.store.budget.release_prefetch(state[2])
        self._results.clear()
        self._cv.notify_all()

    # -- reader thread --------------------------------------------------
    def _run(self) -> None:
        budget = self.store.budget
        empty = np.empty(0, dtype=VID_DTYPE)
        while True:
            with self._cv:
                while True:
                    if self._closed:
                        return
                    if self._queue and len(self._results) < self.depth:
                        key = self._queue[0]
                        entry = self.store._blocks.get(key)
                        reserved = int(entry["bytes"]) if entry else 0
                        # Reservation happens under the lock, so a
                        # concurrent cancel cannot orphan a half-claimed
                        # key: it is popped only once the quota admits it.
                        if budget.reserve_prefetch(reserved):
                            self._queue.popleft()
                            self._inflight = key
                            break
                    self._cv.wait()
            try:
                block = (
                    self.store._serve_block(key, entry)
                    if entry is not None
                    else BlockRead(empty, empty, 0, False)
                )
                state = ("ok", block, reserved)
            except BaseException as exc:  # delivered to the consumer
                budget.release_prefetch(reserved)
                state = ("err", exc)
            with self._cv:
                self._inflight = None
                self._scheduled.discard(key)
                self._results[key] = state
                if state[0] == "err":
                    # The phase aborts on this error; the rest of the
                    # schedule is stale.
                    for k in self._queue:
                        self._scheduled.discard(k)
                    self._queue.clear()
                self._cv.notify_all()
