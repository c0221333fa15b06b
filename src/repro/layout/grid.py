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
  charged against the budget, the largest that fit stay pinned, LRU
  evicts the rest to make room, and the high-water mark proves residency
  never exceeded the budget.  Reads are CRC-checked once, against the
  manifest; a torn block is *repaired on read* by re-sharding it from the
  edge list the grid was built from (in memory, or re-loaded via the
  ``source`` recorded in the manifest).
* :func:`choose_grid_stripes` picks the grid granularity from the
  budget, so a handful of blocks always fits resident ("Making Caches
  Work for Graph Analytics" applies the same working-set sizing to the
  LLC; here the budget plays the cache).

Block payloads are deterministic: edges sorted by (source, destination)
with one packed-key sort (:func:`~repro.graph.edgelist.sorted_pairs`), so
each source stripe is a contiguous slice; sources first then destinations,
each a contiguous array — the same src-major order the in-memory COO
layout uses, which is what keeps streamed execution bit-identical to the
in-RAM path.  Every edge of block ``(i, j)`` has its source in stripe
``i`` and its destination in stripe ``j``, so when both stripes are at
most 65,536 vertices wide a block stores ``uint16`` offsets from the two
stripe starts (width 2), else absolute ``int32`` ids (width 4); the
manifest records each block's width (absent: 4) and is version 2 when any
block is narrow, which :meth:`GridStore.open` checks.  The budget charges for
and caches the stored bytes; :meth:`GridStore.read_block` widens them to
``VID_DTYPE`` per use.

Fault injection: a ``fault_plan`` is any object with
``take(kinds, index) -> kind | None`` (:class:`repro.resilience.FaultPlan`
is the one that exists); :data:`GRID_WRITE_FAULT_KINDS` events fire on
the *Nth block write*, :data:`IO_FAULT_KINDS` on the *Nth block read*.
"""

from __future__ import annotations

import json
import zlib
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

#: the widest stripe whose ids a block stores as ``uint16`` offsets.
_NARROW_SPAN = 1 << 16


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
    stop concentrating most edges in one giant block that crowds the
    budget — each stripe then owns roughly equal edge mass.
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

    The budget holds a few blocks resident (the in-flight one plus the
    pinned and cached ones), so P is the smallest stripe count making
    that many average blocks — ``int32`` COO bytes over P², whatever
    width the blocks are stored in — fit in
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
        #: blocks served from the resident cache.
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
        #: blocks the budget keeps resident once read, and their bytes.
        self.pinned_blocks = 0
        self.pinned_bytes = 0

    def summary(self) -> str:
        return (
            f"reads {self.block_reads} ({self.bytes_read / 1024:.1f} KiB), "
            f"cache hits {self.cache_hits}, skipped {self.blocks_skipped}, "
            f"pinned {self.pinned_blocks} ({self.pinned_bytes / 1024:.1f} KiB), "
            f"repairs {self.repairs}, io retries {self.io_retries}, "
            f"slow reads {self.slow_reads}, write retries {self.write_retries}"
        )


class BlockRead(NamedTuple):
    """One block served by :meth:`GridStore.read_block`."""

    #: the block's ``VID_DTYPE`` ids, whatever width they are stored in.
    src: np.ndarray
    dst: np.ndarray
    #: stored payload bytes transferred from disk (0 on a cache hit).
    nbytes: int
    #: whether the fault plan flagged this read slow (watchdog input).
    slow: bool


def _stored_as(stripes: VertexPartition, i: int, j: int, width: int) -> tuple[type, tuple]:
    """The dtype block ``(i, j)`` stores ids in, and the ``(src, dst)``
    stripe starts they are offsets from (0 for absolute ``int32`` ids)."""
    if width == BYTES_PER_VID:
        return VID_DTYPE, (0, 0)
    return np.uint16, (int(stripes.boundaries[i]), int(stripes.boundaries[j]))


def _widened(stored: np.ndarray, n: int, origin: tuple[int, int]):
    """A block's stored ids (``n`` sources, then destinations) as
    ``VID_DTYPE`` ``(src, dst)``: ``int32`` ids as views of the payload,
    ``uint16`` offsets as one fresh buffer the caller owns — ``astype``,
    then each stripe start but stripe 0's added in place."""
    if stored.dtype == VID_DTYPE:
        return stored[:n], stored[n:]
    ids = stored.astype(VID_DTYPE)
    for part, start in ((ids[:n], origin[0]), (ids[n:], origin[1])):
        if start:  # stripe 0, often the heaviest, needs no add
            part += start
    return ids[:n], ids[n:]


def _block_payload(src: np.ndarray, dst: np.ndarray, dtype, origin: tuple) -> bytes:
    # One buffer, no temporaries; every offset is below its stripe's span, so no cast wraps.
    out = np.empty(src.size + dst.size, dtype)
    np.subtract(src, origin[0], out=out[: src.size], casting="unsafe")
    np.subtract(dst, origin[1], out=out[src.size :], casting="unsafe")
    return out.tobytes()


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
    stored id width, byte count and payload CRC — is written last with
    the checkpoint store's atomic tmp+fsync+replace idiom, making it the
    commit point.
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
    narrow = np.diff(stripes.boundaries) <= _NARROW_SPAN
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
            width = 2 if narrow[i] and narrow[j] else BYTES_PER_VID
            payload = _block_payload(row_src[sel], row_dst[sel], *_stored_as(stripes, i, j, width))
            path = directory / _block_filename(i, j)
            attempts, crc = _write_block(
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
                    "width": width,
                    "bytes": len(payload),
                    "crc32": crc,
                }
            )
    manifest = {
        # 2 marks uint16 blocks, which a reader of version 1 would misread
        "version": 2 if any(b["width"] == 2 for b in blocks) else 1,
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
) -> tuple[int, int]:
    """Write one framed block, surviving one injected full-disk event.

    Returns how many write attempts it took (each consumes one write
    index) and the payload's CRC32 as :func:`write_framed` framed it.  A
    ``torn_block`` event lets the write complete, then flips the file's
    last byte — caught later by the CRC check and repaired on read.
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
        crc = write_framed(path, _BLOCK_MAGIC, payload)
        if kind == "torn_block":
            flip_last_byte(path)
            events.append(f"block ({i},{j}) written torn (injected)")
        return attempt + 1, crc
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
        sizes = {key: int(b["bytes"]) for key, b in self._blocks.items()}
        self.stats.pinned_bytes = self.budget.pin_largest(sizes)
        self.stats.pinned_blocks = len(self.budget.pinned)
        #: each resident block's stored payload: sources, then destinations.
        self._cache: dict[tuple[int, int], np.ndarray] = {}
        self._edges = edges
        self._read_ops = 0

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
        manifest = json.loads(bytes(read_framed(directory / GRID_MANIFEST, _GRID_MAGIC)))
        if manifest.get("version") not in (1, 2):
            raise GridError(
                f"unsupported grid manifest version {manifest.get('version')!r}"
            )
        spans = np.diff(manifest["boundaries"])
        for b in manifest["blocks"]:
            width = b.get("width", BYTES_PER_VID)
            stripes = (b["i"], b["j"])
            if not all(0 <= k < spans.size for k in stripes) or (
                width not in (2, BYTES_PER_VID)
                or (width == 2 and max(spans[k] for k in stripes) > _NARROW_SPAN)
                or b["bytes"] != 2 * width * b["edges"]
            ):
                raise GridError(
                    f"grid block ({b['i']},{b['j']}) has an unsupported format: width "
                    f"{width!r}, {b['edges']} edges in {b['bytes']} bytes"
                )
        return cls(directory, manifest, budget=budget, fault_plan=fault_plan)

    # ------------------------------------------------------------------
    def block_edges(self, i: int, j: int) -> int:
        """Edge count of block ``(i, j)`` (0 when the block is empty)."""
        entry = self._blocks.get((i, j))
        return int(entry["edges"]) if entry else 0

    def total_bytes(self) -> int:
        """Total stored payload bytes across all blocks."""
        return sum(int(b["bytes"]) for b in self._blocks.values())

    # ------------------------------------------------------------------
    def read_block(self, i: int, j: int) -> BlockRead:
        """Serve block ``(i, j)`` from the cache, else from disk.

        Read errors, injected or real, re-read in place (bounded attempts,
        then :class:`~repro.errors.GridIOError`); CRC failures trigger
        repair-on-read; the admitted block is charged to the budget,
        evicting unpinned LRU residents.  All of it runs in the caller's thread.
        The budget holds the stored ids.  A ``uint16`` block's ids are
        widened to ``VID_DTYPE`` into a fresh buffer on every call, hit or
        miss, and that buffer is not charged — nor is a record's copied
        ``activated`` — so ``budget.high_water_bytes`` bounds the cache,
        not the process.
        """
        key = (i, j)
        entry = self._blocks.get(key)
        if entry is None:
            empty = np.empty(0, dtype=VID_DTYPE)
            return BlockRead(empty, empty, 0, False)
        dtype, origin = self._block_format(i, j, entry)
        if key in self._cache:
            self.stats.cache_hits += 1
            self.budget.touch(key)
            return BlockRead(*_widened(self._cache[key], entry["edges"], origin), 0, False)
        payload, slow = self._fetch_payload(i, j, entry)
        stored = np.frombuffer(payload, dtype=dtype)
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
            self._cache[key] = stored
        self.stats.block_reads += 1
        self.stats.bytes_read += len(payload)
        return BlockRead(*_widened(stored, entry["edges"], origin), len(payload), slow)

    def _block_format(self, i: int, j: int, entry: dict) -> tuple[type, tuple]:
        return _stored_as(self.stripes, i, j, int(entry.get("width", BYTES_PER_VID)))

    def _fetch_payload(self, i: int, j: int, entry: dict) -> tuple[memoryview | bytes, bool]:
        """One block's disk payload: fault injection, retries, CRC repair."""
        slow = False
        for _ in range(_MAX_READ_ATTEMPTS):
            kind = (
                self.fault_plan.take(IO_FAULT_KINDS, self._read_ops)
                if self.fault_plan is not None
                else None
            )
            self._read_ops += 1
            if kind == "slow_io":
                slow = True
                self.stats.slow_reads += 1
                self.events.append(f"slow read of block ({i},{j})")
            try:
                if kind == "io_error":
                    raise OSError("injected I/O error")
                return self._read_verified(i, j, entry), slow
            except OSError:
                self.stats.io_retries += 1
                self.events.append(
                    f"transient I/O error reading block ({i},{j}); re-reading"
                )
        raise GridIOError(
            f"grid block ({i},{j}) unreadable after {_MAX_READ_ATTEMPTS} attempts"
        )

    def _read_verified(self, i: int, j: int, entry: dict) -> memoryview | bytes:
        """One disk read, CRC-checked against the manifest; repairs torn blocks."""
        try:
            return read_framed(self.directory / entry["file"], _BLOCK_MAGIC, int(entry["crc32"]))
        except CheckpointError:
            return self._repair_block(i, j, entry)

    def _repair_block(self, i: int, j: int, entry: dict) -> bytes:
        """Re-shard one torn block from the source edges and rewrite it in
        its recorded width."""
        edges = self._source_edges()
        if edges is None:
            raise TornBlockError(
                f"grid block ({i},{j}) is corrupt and the manifest records "
                f"no loadable source to repair it from"
            )
        row_src, row_dst = _shard_edges(edges, self.stripes)[i]
        sel = self.stripes.partition_of(row_dst) == j
        payload = _block_payload(row_src[sel], row_dst[sel], *self._block_format(i, j, entry))
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
                read_framed(self.directory / entry["file"], _BLOCK_MAGIC, int(entry["crc32"]))
            except CheckpointError:
                bad.append((i, j))
        return bad

    def release(self) -> None:
        """Drop every resident block; the next read of one re-reads it."""
        self._cache.clear()
        self.budget.clear()

    def __repr__(self) -> str:
        return (
            f"GridStore({self.num_stripes}x{self.num_stripes}, "
            f"|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"{len(self._blocks)} blocks, {self.total_bytes()} B)"
        )

