"""Pluggable checkpoint storage backends.

:class:`CheckpointStore` is the byte-level contract behind
:class:`~repro.resilience.CheckpointManager`: a keyed map from
``(run name, step)`` to a dict of named numpy arrays, with atomic commit
and integrity verification on read.  It also declares, with defaults,
everything else the manager and the CLI ask of a store — its on-disk
location, damage per storage fault kind, its events, pending spill and
``sync`` — so no caller probes a store for what it can do.  Three
backends ship:

:class:`LocalDirStore`
    The original single-file format — one framed ``.ckpt`` container per
    step (magic, CRC32, length, ``.npz`` payload), committed with
    tmp-write + fsync + ``os.replace``.

:class:`ShardedStore`
    One *shard file per state array* plus an atomically-committed
    manifest per step (a "generation").  Shards are individually framed
    and CRC-checked; the manifest — written last — is the commit point,
    so a crash mid-save leaves an invisible, uncommitted generation.  A
    torn shard detected on read is *repaired from the previous
    generation* when that generation's manifest records the same digest
    (the array did not change between steps); otherwise the generation
    is reported corrupt and the manager falls back to the previous one.

:class:`ReplicatedStore`
    N-way mirroring over any child stores.  Writes must reach a quorum
    (majority by default) or the save fails; reads walk the replicas in
    order and return the first generation that verifies, then re-sync
    the lagging/corrupt replicas from the healthy copy.

A fourth backend, :class:`~repro.resilience.remote.RemoteStore`, lives
in its own module: checkpoints in a simulated S3-style object service
behind a fault-injecting network, spilling to a local write-behind
journal while the remote is unavailable.

``make_store`` builds any of the four from the CLI's ``--store`` flag,
whose value is a *spec* in the one ``kind[:key=value]*`` grammar of
:mod:`repro.spec` (``local``, ``replicated:replicas=3``,
``remote:seed=7:deadline=10``); :data:`STORE_SPEC` is this module's
option table.
"""

from __future__ import annotations

import io
import json
import logging
import os
import re
import shutil
import zlib
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..durable import flip_last_byte, read_framed, write_framed
from ..errors import CheckpointCorruptError, CheckpointError, ValidationError
from ..spec import integer, number, parse_spec, string

__all__ = [
    "CheckpointStore",
    "LocalDirStore",
    "ShardedStore",
    "ReplicatedStore",
    "STORE_KINDS",
    "STORE_SPEC",
    "make_store",
    "safe_name",
    "npz_bytes",
    "npz_arrays",
]

log = logging.getLogger(__name__)

_CKPT_MAGIC = b"RPRCKPT1"
_SHARD_MAGIC = b"RPRSHRD1"
_MANIFEST_MAGIC = b"RPRMANI1"
#: a generation's directory entry: ``<name>.it<step>`` plus the kind's suffix.
_GEN_RE = re.compile(r"^(?P<name>.+)\.it(?P<step>\d{8})(?P<suffix>\.ckpt)?$")
_MANIFEST_FILE = "manifest.mf"


def safe_name(name: str) -> str:
    """Filesystem-safe form of a run name."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name) or "run"


def npz_bytes(arrays: Mapping[str, np.ndarray]) -> bytes:
    """One generation's arrays as a compressed ``.npz`` payload."""
    buf = io.BytesIO()
    np.savez_compressed(buf, **{k: np.asarray(v) for k, v in arrays.items()})
    return buf.getvalue()


def npz_arrays(payload: bytes) -> dict[str, np.ndarray]:
    """The arrays of an :func:`npz_bytes` payload."""
    with np.load(io.BytesIO(payload)) as data:
        return {k: data[k] for k in data.files}


class CheckpointStore(ABC):
    """Byte-level backend of the checkpoint manager, and the whole of what
    the manager and the CLI may ask of one.

    Implementations must make ``save`` atomic (a crash leaves either the
    previous or the new generation, never a half-written one) and
    ``load`` integrity-checked (:class:`CheckpointCorruptError` on any
    torn or flipped byte that cannot be repaired).  Everything below the
    five abstract methods has a default, so a kind overrides only what it
    has: shards to tear, replicas to lose, a spill journal to drain.
    """

    #: short backend identifier (one of :data:`STORE_KINDS`).
    kind: str = "abstract"
    #: the one local directory the store lives in, for kinds that have one.
    directory: Path | None = None
    #: human-readable degradation events, newest last.
    events: Sequence[str] = ()

    @abstractmethod
    def save(self, name: str, step: int, arrays: Mapping[str, np.ndarray]) -> None:
        """Atomically persist one generation."""

    @abstractmethod
    def load(self, name: str, step: int) -> dict[str, np.ndarray]:
        """Load and verify one generation."""

    @abstractmethod
    def steps(self, name: str) -> list[int]:
        """Committed steps for ``name``, ascending."""

    @abstractmethod
    def names(self) -> list[str]:
        """All run names with at least one committed generation."""

    @abstractmethod
    def delete(self, name: str, step: int) -> None:
        """Remove one generation (missing generations are a no-op)."""

    # ------------------------------------------------------------------
    def verify(self, name: str, step: int) -> bool:
        """Whether generation ``(name, step)`` loads clean."""
        try:
            self.load(name, step)
        except CheckpointError:
            return False
        return True

    def size_bytes(self, name: str, step: int) -> int | None:
        """On-disk footprint of one generation, if cheaply known."""
        return None

    def path_for(self, name: str, step: int) -> Path | None:
        """The on-disk location of one generation; ``None`` for kinds that
        keep no single one."""
        return None

    # ------------------------------------------------------------------
    # fault injection, one method per storage fault kind
    # (:mod:`repro.resilience.faults` documents the fallbacks)
    # ------------------------------------------------------------------
    def corrupt(self, name: str, step: int) -> None:
        """``corrupt_checkpoint``: flip a byte of the stored generation."""
        raise NotImplementedError(f"{self.kind} store does not support corrupt()")

    def corrupt_shard(self, name: str, step: int) -> None:
        """``corrupt_shard``: tear one shard; a store without shards
        corrupts the whole generation."""
        self.corrupt(name, step)

    def lose_replica(self, name: str, step: int) -> None:
        """``lost_replica``: drop one replica's copy; an un-replicated
        store loses the generation."""
        self.delete(name, step)

    # ------------------------------------------------------------------
    # write-behind (only the remote store has a spill journal)
    # ------------------------------------------------------------------
    def pending_spill(self) -> list[tuple[str, int]]:
        """Generations waiting in a local spill journal for upload."""
        return []

    def sync(self, *, best_effort: bool = False) -> list:
        """Drain the spill journal; only a remote store has one."""
        raise ValidationError(
            f"'checkpoints sync' needs a remote store, got --store {self.kind!r}"
        )


class _DirectoryStore(CheckpointStore):
    """Generations are the entries ``<name>.it<NNNNNNNN><suffix>`` of one
    directory: the naming and listing the local and sharded kinds share."""

    _suffix = ""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str, step: int) -> Path:
        return self.directory / f"{safe_name(name)}.it{step:08d}{self._suffix}"

    def _committed(self, path: Path) -> bool:
        return True

    def _generations(self) -> list[tuple[str, int]]:
        """``(safe name, step)`` of every committed generation."""
        found = []
        for path in self.directory.iterdir():
            m = _GEN_RE.match(path.name)
            if m and (m["suffix"] or "") == self._suffix and self._committed(path):
                found.append((m["name"], int(m["step"])))
        return found

    def steps(self, name: str) -> list[int]:
        safe = safe_name(name)
        return sorted(step for found, step in self._generations() if found == safe)

    def names(self) -> list[str]:
        return sorted({found for found, _ in self._generations()})


class LocalDirStore(_DirectoryStore):
    """One framed ``<name>.it<NNNNNNNN>.ckpt`` file per generation."""

    kind = "local"
    _suffix = ".ckpt"

    def save(self, name: str, step: int, arrays: Mapping[str, np.ndarray]) -> None:
        write_framed(self.path_for(name, step), _CKPT_MAGIC, npz_bytes(arrays))

    def load(self, name: str, step: int) -> dict[str, np.ndarray]:
        path = self.path_for(name, step)
        if not path.exists():
            raise CheckpointError(f"no checkpoint at {path}")
        return npz_arrays(read_framed(path, _CKPT_MAGIC))

    def delete(self, name: str, step: int) -> None:
        self.path_for(name, step).unlink(missing_ok=True)

    def size_bytes(self, name: str, step: int) -> int | None:
        path = self.path_for(name, step)
        return path.stat().st_size if path.exists() else None

    def corrupt(self, name: str, step: int) -> None:
        flip_last_byte(self.path_for(name, step))
        log.warning("fault injection corrupted checkpoint %s step %d", name, step)


class ShardedStore(_DirectoryStore):
    """One shard per state array, committed by an atomic manifest.

    Generation layout::

        <dir>/<name>.it<NNNNNNNN>/
            <array>.shard     framed (magic, CRC32, length, raw .npy bytes)
            manifest.mf       framed JSON: {key: {file, crc32, bytes}}

    The manifest write is the commit point; a generation without a valid
    manifest does not exist as far as :meth:`steps` is concerned.  Torn
    shards are repaired on read from the newest older generation whose
    manifest records the same CRC (see :meth:`load`).
    """

    kind = "sharded"

    def generation_dir(self, name: str, step: int) -> Path:
        """Directory holding one generation's shards and manifest."""
        return self.path_for(name, step)

    def _committed(self, path: Path) -> bool:
        return (path / _MANIFEST_FILE).exists()

    def _shard_path(self, gen: Path, key: str) -> Path:
        return gen / f"{safe_name(key)}.shard"

    @staticmethod
    def _array_bytes(array: np.ndarray) -> bytes:
        buf = io.BytesIO()
        np.save(buf, np.asarray(array), allow_pickle=False)
        return buf.getvalue()

    # ------------------------------------------------------------------
    def save(self, name: str, step: int, arrays: Mapping[str, np.ndarray]) -> None:
        gen = self.generation_dir(name, step)
        gen.mkdir(parents=True, exist_ok=True)
        manifest: dict[str, dict] = {}
        for key, array in arrays.items():
            payload = self._array_bytes(array)
            write_framed(self._shard_path(gen, key), _SHARD_MAGIC, payload)
            manifest[key] = {
                "file": self._shard_path(gen, key).name,
                "crc32": zlib.crc32(payload),
                "bytes": len(payload),
            }
        body = json.dumps({"name": name, "step": step, "shards": manifest}).encode()
        write_framed(gen / _MANIFEST_FILE, _MANIFEST_MAGIC, body)

    def _manifest(self, name: str, step: int) -> dict:
        gen = self.generation_dir(name, step)
        path = gen / _MANIFEST_FILE
        if not path.exists():
            raise CheckpointError(f"no committed generation at {gen}")
        try:
            return json.loads(bytes(read_framed(path, _MANIFEST_MAGIC)))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointCorruptError(f"{path}: undecodable manifest: {exc}") from None

    def _load_shard(self, name: str, step: int, key: str, expect_crc: int) -> memoryview:
        gen = self.generation_dir(name, step)
        return read_framed(self._shard_path(gen, key), _SHARD_MAGIC, expect_crc)

    def _repair_shard(self, name: str, step: int, key: str, expect_crc: int) -> memoryview:
        """Torn-shard repair: copy the bytes from an older generation.

        Only a generation whose manifest records the *same* CRC for this
        shard can repair it bit-identically; the newest such generation
        wins.  The repaired bytes are rewritten in place so subsequent
        reads are clean.
        """
        for older in reversed([s for s in self.steps(name) if s < step]):
            try:
                manifest = self._manifest(name, older)
                entry = manifest["shards"].get(key)
                if entry is None or entry["crc32"] != expect_crc:
                    continue
                payload = self._load_shard(name, older, key, expect_crc)
            except CheckpointError:
                continue
            write_framed(
                self._shard_path(self.generation_dir(name, step), key),
                _SHARD_MAGIC,
                payload,
            )
            log.warning(
                "repaired torn shard %s of %s step %d from generation %d",
                key, name, step, older,
            )
            return payload
        raise CheckpointCorruptError(
            f"shard {key!r} of {name} step {step} is torn and no older "
            "generation holds an identical copy"
        )

    def load(self, name: str, step: int) -> dict[str, np.ndarray]:
        manifest = self._manifest(name, step)
        out: dict[str, np.ndarray] = {}
        for key, entry in manifest["shards"].items():
            try:
                payload = self._load_shard(name, step, key, entry["crc32"])
            except CheckpointCorruptError:
                payload = self._repair_shard(name, step, key, entry["crc32"])
            out[key] = np.load(io.BytesIO(payload), allow_pickle=False)
        return out

    def delete(self, name: str, step: int) -> None:
        gen = self.generation_dir(name, step)
        if gen.exists():
            # Remove the manifest first so a crash mid-delete leaves an
            # uncommitted (invisible) generation, not a torn one.
            (gen / _MANIFEST_FILE).unlink(missing_ok=True)
            shutil.rmtree(gen, ignore_errors=True)

    def size_bytes(self, name: str, step: int) -> int | None:
        gen = self.generation_dir(name, step)
        if not gen.exists():
            return None
        return sum(p.stat().st_size for p in gen.iterdir() if p.is_file())

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def corrupt(self, name: str, step: int) -> None:
        """Tear the manifest: the whole generation becomes invalid."""
        flip_last_byte(self.generation_dir(name, step) / _MANIFEST_FILE)
        log.warning("fault injection tore manifest of %s step %d", name, step)

    def corrupt_shard(self, name: str, step: int) -> None:
        """Tear one shard (the first in sorted key order, deterministic)."""
        manifest = self._manifest(name, step)
        key = sorted(manifest["shards"])[0]
        flip_last_byte(self._shard_path(self.generation_dir(name, step), key))
        log.warning("fault injection tore shard %s of %s step %d", key, name, step)


class ReplicatedStore(CheckpointStore):
    """N-way mirrored stores with quorum writes and repair-on-read.

    ``save`` must succeed on at least ``write_quorum`` replicas (majority
    by default) or raises :class:`CheckpointError`.  ``load`` walks *all*
    replicas in order, returns the first copy that verifies, and then
    re-syncs every replica that was missing or corrupt from the healthy
    copy (the "background re-sync" of a real deployment, performed
    synchronously here so tests stay deterministic).
    """

    kind = "replicated"

    def __init__(
        self, replicas: list[CheckpointStore], *, write_quorum: int | None = None
    ) -> None:
        if not replicas:
            raise ValueError("ReplicatedStore needs at least one replica")
        default_quorum = len(replicas) // 2 + 1
        self.replicas = list(replicas)
        self.write_quorum = write_quorum if write_quorum is not None else default_quorum
        if not (1 <= self.write_quorum <= len(replicas)):
            raise ValueError(
                f"write_quorum must lie in [1, {len(replicas)}], got {self.write_quorum}"
            )

    def save(self, name: str, step: int, arrays: Mapping[str, np.ndarray]) -> None:
        acked = 0
        last_error: Exception | None = None
        for replica in self.replicas:
            try:
                replica.save(name, step, arrays)
                acked += 1
            except CheckpointError as exc:  # pragma: no cover - disk faults
                last_error = exc
                log.warning("replica %s failed to ack save: %s", replica.kind, str(exc))
        if acked < self.write_quorum:
            raise CheckpointError(
                f"checkpoint {name} step {step} reached only {acked} of "
                f"{self.write_quorum} required replicas"
            ) from last_error

    def load(self, name: str, step: int) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] | None = None
        stale: list[CheckpointStore] = []
        last_error: Exception | None = None
        for replica in self.replicas:
            if arrays is None:
                try:
                    arrays = replica.load(name, step)
                    continue
                except CheckpointError as exc:
                    last_error = exc
                    stale.append(replica)
            elif not replica.verify(name, step):
                stale.append(replica)
        if arrays is None:
            assert last_error is not None
            raise last_error
        for replica in stale:
            try:
                replica.save(name, step, arrays)
                log.warning(
                    "re-synced replica for %s step %d from a healthy copy", name, step
                )
            except CheckpointError as exc:  # pragma: no cover - disk faults
                log.warning("re-sync of %s step %d failed: %s", name, step, str(exc))
        return arrays

    def steps(self, name: str) -> list[int]:
        out: set[int] = set()
        for replica in self.replicas:
            out.update(replica.steps(name))
        return sorted(out)

    def names(self) -> list[str]:
        out: set[str] = set()
        for replica in self.replicas:
            out.update(replica.names())
        return sorted(out)

    def delete(self, name: str, step: int) -> None:
        for replica in self.replicas:
            replica.delete(name, step)

    def size_bytes(self, name: str, step: int) -> int | None:
        for replica in self.replicas:
            size = replica.size_bytes(name, step)
            if size is not None:
                return size
        return None

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def corrupt(self, name: str, step: int) -> None:
        """Corrupt every replica: the generation is unrecoverable."""
        for replica in self.replicas:
            replica.corrupt(name, step)

    def lose_replica(self, name: str, step: int, *, replica: int = 0) -> None:
        """Drop one replica's copy (a lost node)."""
        self.replicas[replica].delete(name, step)
        log.warning(
            "fault injection lost replica %d copy of %s step %d", replica, name, step
        )


#: the ``--store`` spec table: every kind, and the options it accepts.
#: ``replicas`` is the mirror count; the ``remote`` options seed its
#: network simulator, inject ``+``-joined fault events into it (``,``
#: already separates CLI fault events), and bound the client's retries
#: by simulated seconds and by attempts.
STORE_SPEC = {
    "local": {},
    "sharded": {},
    "replicated": {"replicas": integer(2, minimum=1)},
    "remote": {
        "seed": integer(0),
        "faults": string(None),
        "deadline": number(30.0),
        "attempts": integer(8, minimum=1),
    },
}

#: CLI-selectable backend names.
STORE_KINDS = tuple(STORE_SPEC)


def make_store(
    spec: str, directory: str | os.PathLike, *, fault_plan=None
) -> CheckpointStore:
    """Build a store backend from its CLI ``--store`` spec.

    ``replicated`` mirrors a :class:`ShardedStore` across ``replicas``
    subdirectories of ``directory`` (``replica-0``, ``replica-1``, ...).
    A ``fault_plan`` (e.g. the run's ``--faults`` plan) is merged with
    the ``remote`` spec's ``faults`` so the network simulator and the
    engine consume the same one-shot event pool.
    """
    kind, options = parse_spec("store", STORE_SPEC, spec)
    if kind == "local":
        return LocalDirStore(directory)
    if kind == "sharded":
        return ShardedStore(directory)
    if kind == "replicated":
        return ReplicatedStore(
            [
                ShardedStore(Path(directory) / f"replica-{i}")
                for i in range(options["replicas"])
            ]
        )
    # kind == "remote"; imported lazily (remote.py imports this module).
    from .faults import FaultPlan
    from .remote import RemoteStore

    merged = fault_plan
    if options["faults"] is not None:
        spec_plan = FaultPlan.from_spec(options["faults"].replace("+", ","))
        # Share the event objects so one-shot semantics stay consistent
        # between the engine and the network simulator.
        merged = FaultPlan(
            (fault_plan.events if fault_plan is not None else []) + spec_plan.events
        )
    return RemoteStore(
        directory,
        seed=options["seed"],
        fault_plan=merged,
        deadline_s=options["deadline"],
        max_attempts=options["attempts"],
    )
