"""Remote checkpoint store over a fault-injected object protocol.

Three layers, each independently testable:

:class:`ObjectService`
    An in-process S3-style object store rooted at a directory (the
    simulated remote's durable media): PUT/GET/HEAD/DELETE/LIST with
    ETags, plus multipart uploads with per-part CRC32 declarations and
    an **atomic complete-multipart commit point** — parts are verified
    against their declared CRCs, assembled, and committed via the same
    tmp-write + ``os.replace`` discipline the local stores use, with the
    metadata sidecar written last.  An upload without a completed commit
    is invisible to GET/LIST.  Overwrites retain the previous version so
    the network simulator can serve bounded-staleness reads.

:class:`RemoteClient`
    The failure-aware protocol client: every request runs through a
    :class:`~repro.resilience.netsim.NetworkSimulator` and is retried
    under a **deadline** with the supervisor's shared seeded
    capped-exponential-jitter :class:`~repro.resilience.backoff.BackoffSchedule`;
    GETs are **hedged** once the observed latency exceeds a running
    percentile; a **closed → open → half-open** :class:`CircuitBreaker`
    fails fast while the remote is down and probes it after a cooldown.
    Exhausted budgets raise the typed
    :class:`~repro.errors.RemoteUnavailableError`.

:class:`RemoteStore`
    The :class:`~repro.resilience.store.CheckpointStore` backend.  Saves
    are multipart uploads (one object per generation); when the remote
    is unavailable the save **degrades instead of blocking**: the
    generation is spilled to a local write-behind journal (a
    :class:`~repro.resilience.store.LocalDirStore`) and :meth:`RemoteStore.sync`
    drains the journal once the remote heals — opportunistically after
    the next successful save, or explicitly via
    ``python -m repro checkpoints sync``.  Reads, listings and deletes
    degrade the same way (spill union, deferred tombstones), so a
    checkpointed run never stalls on the network.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from ..durable import flip_last_byte, write_bytes
from ..errors import (
    CheckpointCorruptError,
    CheckpointError,
    NetworkError,
    RemoteProtocolError,
    RemoteUnavailableError,
    ValidationError,
)
from .backoff import BackoffSchedule
from .netsim import NetworkSimulator
from .store import CheckpointStore, LocalDirStore, npz_arrays, npz_bytes, safe_name

__all__ = [
    "ObjectService",
    "CircuitBreaker",
    "RemoteClient",
    "RemoteStore",
    "SyncOutcome",
]

log = logging.getLogger(__name__)

_KEY_RE = re.compile(r"^[A-Za-z0-9._-]+(?:/[A-Za-z0-9._-]+)*$")
#: suffixes the service reserves for its own sidecar files.
_RESERVED_SUFFIXES = (".meta", ".prev", ".prevmeta", ".tmp")
_OBJECT_KEY_RE = re.compile(r"^(?P<name>.+)/it(?P<step>\d{8})\.npz$")


def _etag(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class ObjectService:
    """In-process S3-style object store over a directory.

    This is the *server side*: no network behaviour lives here (the
    simulator injects that in front of every call), only protocol
    semantics — keys, ETags, metadata sidecars, multipart uploads with
    declared per-part CRC32s, and the atomic commit.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._uploads = self.root / ".uploads"
        self._uploads.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # paths and keys
    # ------------------------------------------------------------------
    def _check_key(self, key: str) -> str:
        if not _KEY_RE.match(key) or ".." in key.split("/"):
            raise RemoteProtocolError(f"InvalidKey: {key!r}")
        if key.endswith(_RESERVED_SUFFIXES):
            raise RemoteProtocolError(
                f"InvalidKey: {key!r} ends with a reserved suffix"
            )
        return key

    def _data_path(self, key: str) -> Path:
        return self.root / self._check_key(key)

    def _meta_path(self, key: str) -> Path:
        return self.root / (self._check_key(key) + ".meta")

    def _prev_path(self, key: str) -> Path:
        return self.root / (self._check_key(key) + ".prev")

    def _prev_meta_path(self, key: str) -> Path:
        return self.root / (self._check_key(key) + ".prevmeta")

    # ------------------------------------------------------------------
    # single-request object API
    # ------------------------------------------------------------------
    def put_object(self, key: str, data: bytes) -> str:
        """Store one object atomically; returns its ETag."""
        meta = {
            "etag": _etag(data),
            "bytes": len(data),
            "crc32": zlib.crc32(data),
            "parts": 1,
        }
        self._commit(key, data, meta)
        return meta["etag"]

    def _commit(self, key: str, data: bytes, meta: dict) -> None:
        """The atomic commit: data first, metadata sidecar last.

        The sidecar is the commit point — an object without one does
        not exist.  The previous version (when overwriting) is retained
        for bounded-staleness reads.
        """
        data_path = self._data_path(key)
        meta_path = self._meta_path(key)
        data_path.parent.mkdir(parents=True, exist_ok=True)
        if meta_path.exists():
            generation = self.head_object(key).get("generation", 1)
            os.replace(data_path, self._prev_path(key))
            os.replace(meta_path, self._prev_meta_path(key))
        else:
            generation = 0
        meta = dict(meta, generation=generation + 1)
        write_bytes(data_path, data)
        write_bytes(meta_path, json.dumps(meta).encode())

    def get_object(self, key: str, *, stale: bool = False) -> tuple[bytes, dict]:
        """Fetch ``(bytes, metadata)``; ``stale`` serves the previous version."""
        meta = self.head_object(key, stale=stale)
        path = self._prev_path(key) if self._is_stale_served(key, stale) else self._data_path(key)
        try:
            return path.read_bytes(), meta
        except FileNotFoundError:
            raise RemoteProtocolError(f"NoSuchKey: {key!r}") from None

    def _is_stale_served(self, key: str, stale: bool) -> bool:
        return stale and self._prev_meta_path(key).exists()

    def head_object(self, key: str, *, stale: bool = False) -> dict:
        """Object metadata (etag, bytes, crc32, generation) without the body."""
        path = (
            self._prev_meta_path(key)
            if self._is_stale_served(key, stale)
            else self._meta_path(key)
        )
        try:
            return json.loads(path.read_bytes())
        except FileNotFoundError:
            raise RemoteProtocolError(f"NoSuchKey: {key!r}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RemoteProtocolError(f"undecodable metadata for {key!r}: {exc}") from None

    def delete_object(self, key: str) -> None:
        """Remove an object and its retained previous version (idempotent)."""
        # Metadata first: a crash mid-delete leaves an uncommitted
        # (invisible) object, never a committed one with missing bytes.
        for path in (
            self._meta_path(key),
            self._data_path(key),
            self._prev_meta_path(key),
            self._prev_path(key),
        ):
            path.unlink(missing_ok=True)

    def list_objects(self, prefix: str = "") -> list[str]:
        """Committed object keys under ``prefix``, sorted."""
        keys = []
        for path in self.root.rglob("*.meta"):
            if self._uploads in path.parents or not path.is_file():
                continue
            key = path.relative_to(self.root).as_posix()[: -len(".meta")]
            if key.startswith(prefix):
                keys.append(key)
        return sorted(keys)

    # ------------------------------------------------------------------
    # multipart upload: per-part CRC32, atomic complete
    # ------------------------------------------------------------------
    def create_multipart(self, key: str) -> str:
        """Open a multipart upload for ``key``; returns the upload id."""
        self._check_key(key)
        seq = 0
        while True:
            upload_id = f"{zlib.crc32(key.encode()):08x}-{seq:04d}"
            updir = self._uploads / upload_id
            if not updir.exists():
                break
            seq += 1
        updir.mkdir(parents=True)
        write_bytes(updir / "upload.json", json.dumps({"key": key}).encode())
        return upload_id

    def _upload_dir(self, upload_id: str) -> Path:
        updir = self._uploads / upload_id
        if not (updir / "upload.json").exists():
            raise RemoteProtocolError(f"NoSuchUpload: {upload_id!r}")
        return updir

    def upload_part(
        self, upload_id: str, part_number: int, data: bytes, crc32: int
    ) -> None:
        """Store one part with the client's *declared* CRC32.

        The service does not validate the bytes here — a reset-torn part
        arrives with its original declaration and is caught at
        :meth:`complete_multipart`, exactly like an S3 ``CompleteMultipartUpload``
        rejecting a part whose ETag no longer matches.  Re-uploading a
        part number overwrites it (retries are idempotent).
        """
        if part_number < 1:
            raise RemoteProtocolError("InvalidPart: part numbers start at 1")
        updir = self._upload_dir(upload_id)
        write_bytes(updir / f"part-{part_number:05d}", data)
        write_bytes(
            updir / f"part-{part_number:05d}.json",
            json.dumps({"crc32": crc32}).encode(),
        )

    def complete_multipart(
        self, upload_id: str, parts: list[tuple[int, int]]
    ) -> str:
        """Verify every part against its declared CRC32 and commit atomically.

        ``parts`` is the client's ordered ``[(part_number, crc32), ...]``
        manifest.  Any missing part, declaration mismatch, or byte-level
        CRC failure raises :class:`~repro.errors.RemoteProtocolError`
        and commits nothing; on success the assembled object becomes
        visible in one atomic step and the upload is discarded.
        """
        updir = self._upload_dir(upload_id)
        key = json.loads((updir / "upload.json").read_bytes())["key"]
        if not parts:
            raise RemoteProtocolError("InvalidPart: empty part manifest")
        chunks: list[bytes] = []
        part_etags: list[str] = []
        for part_number, declared_crc in sorted(parts):
            part_path = updir / f"part-{part_number:05d}"
            decl_path = updir / f"part-{part_number:05d}.json"
            if not part_path.exists() or not decl_path.exists():
                raise RemoteProtocolError(
                    f"InvalidPart: part {part_number} of {upload_id!r} was never uploaded"
                )
            stored_decl = json.loads(decl_path.read_bytes())["crc32"]
            data = part_path.read_bytes()
            if stored_decl != declared_crc or zlib.crc32(data) != declared_crc:
                raise RemoteProtocolError(
                    f"InvalidPart: part {part_number} of {upload_id!r} failed its "
                    "CRC32 check (torn or damaged upload)"
                )
            chunks.append(data)
            part_etags.append(_etag(data))
        body = b"".join(chunks)
        meta = {
            "etag": _etag("".join(part_etags).encode()) + f"-{len(parts)}",
            "bytes": len(body),
            "crc32": zlib.crc32(body),
            "parts": len(parts),
        }
        self._commit(key, body, meta)
        shutil.rmtree(updir, ignore_errors=True)
        return meta["etag"]

    def abort_multipart(self, upload_id: str) -> None:
        """Discard an open upload (idempotent)."""
        shutil.rmtree(self._uploads / upload_id, ignore_errors=True)

    def pending_uploads(self) -> list[str]:
        """Open (never-completed) upload ids."""
        return sorted(
            p.name for p in self._uploads.iterdir() if (p / "upload.json").exists()
        )

    # ------------------------------------------------------------------
    # fault-injection backdoor (not part of the protocol)
    # ------------------------------------------------------------------
    def corrupt_object(self, key: str) -> None:
        """Flip the last byte of the stored object, bypassing the protocol."""
        path = self._data_path(key)
        if not path.exists():
            raise CheckpointError(f"no object at {key!r} to corrupt")
        flip_last_byte(path)
        log.warning("fault injection corrupted remote object %s", key)


# ----------------------------------------------------------------------
# client: breaker + deadline-bounded retries + hedged reads
# ----------------------------------------------------------------------
@dataclass
class CircuitBreaker:
    """Closed → open → half-open breaker over the simulated clock.

    ``failure_threshold`` consecutive transport failures open the
    breaker; while open, calls fail fast without a network attempt.
    After ``cooldown_s`` (simulated) the next call is let through as a
    half-open probe: success closes the breaker, failure re-opens it and
    re-arms the cooldown.  Because every open state grants a probe after
    a finite cooldown, the machine cannot wedge open once faults stop.
    """

    failure_threshold: int = 5
    cooldown_s: float = 10.0
    state: str = "closed"
    failures: int = 0
    opened_at: float = 0.0
    #: (clock, new_state) transition log, for tests and reporting.
    transitions: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")

    def _move(self, now: float, state: str) -> None:
        self.state = state
        self.transitions.append((now, state))

    def allow(self, now: float) -> bool:
        """Whether a request may go out at simulated time ``now``."""
        if self.state == "open":
            if now - self.opened_at >= self.cooldown_s:
                self._move(now, "half_open")
                return True
            return False
        return True  # closed, or half-open probing

    def record_success(self, now: float) -> None:
        if self.state != "closed":
            self._move(now, "closed")
        self.failures = 0

    def record_failure(self, now: float) -> None:
        if self.state == "half_open":
            self.opened_at = now
            self._move(now, "open")
            return
        self.failures += 1
        if self.state == "closed" and self.failures >= self.failure_threshold:
            self.opened_at = now
            self._move(now, "open")


class RemoteClient:
    """Deadline-bounded, hedging, circuit-breaking object-protocol client.

    Parameters
    ----------
    service, net:
        The object service and the simulated transport in front of it.
    deadline_s:
        Simulated-time budget per logical operation, retries and
        backoff waits included; exceeding it raises
        :class:`~repro.errors.RemoteUnavailableError`.
    max_attempts:
        Transport attempts per logical operation.
    backoff:
        Shared :class:`BackoffSchedule`; waits advance the *simulated*
        clock, never the wall clock.
    breaker:
        The :class:`CircuitBreaker`; when open, calls raise
        :class:`~repro.errors.RemoteUnavailableError` without touching
        the network.
    part_bytes:
        Multipart chunk size for :meth:`put_object`.
    hedge_percentile, hedge_min_samples:
        GETs slower than this percentile of the observed latency history
        are hedged with a duplicate request (first response wins).
    """

    def __init__(
        self,
        service: ObjectService,
        net: NetworkSimulator | None = None,
        *,
        deadline_s: float = 30.0,
        max_attempts: int = 8,
        backoff: BackoffSchedule | None = None,
        breaker: CircuitBreaker | None = None,
        part_bytes: int = 1 << 16,
        hedge_percentile: float = 95.0,
        hedge_min_samples: int = 16,
    ) -> None:
        if deadline_s <= 0:
            raise ValidationError("deadline_s must be positive")
        if max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        if part_bytes < 1:
            raise ValidationError("part_bytes must be >= 1")
        if not 0 < hedge_percentile <= 100:
            raise ValidationError("hedge_percentile must lie in (0, 100]")
        self.service = service
        self.net = net if net is not None else NetworkSimulator()
        self.deadline_s = deadline_s
        self.max_attempts = max_attempts
        self.backoff = backoff or BackoffSchedule(
            base=0.05, factor=2.0, cap=2.0, jitter=0.1, seed=self.net.seed
        )
        self.breaker = breaker or CircuitBreaker()
        self.part_bytes = part_bytes
        self.hedge_percentile = hedge_percentile
        self.hedge_min_samples = hedge_min_samples
        self._latencies: list[float] = []
        self.attempts = 0
        self.retries = 0
        self.fast_failures = 0
        self.stale_rereads = 0

    # ------------------------------------------------------------------
    def _hedge_threshold(self) -> float | None:
        if len(self._latencies) < self.hedge_min_samples:
            return None
        return float(np.percentile(self._latencies, self.hedge_percentile))

    def _call(
        self,
        op: str,
        execute,
        *,
        payload: bytes | None = None,
        stale_execute=None,
        hedged: bool = False,
    ):
        """One logical operation: breaker gate, retry loop, deadline."""
        if not self.breaker.allow(self.net.clock_s):
            self.fast_failures += 1
            raise RemoteUnavailableError(
                f"circuit breaker open: {op} rejected without a network attempt"
            )
        start = self.net.clock_s
        attempt = 0
        while True:
            before = self.net.clock_s
            self.attempts += 1
            try:
                result = self.net.perform(
                    op,
                    execute,
                    payload=payload,
                    stale_execute=stale_execute,
                    hedge_after_s=self._hedge_threshold() if hedged else None,
                )
            except NetworkError as exc:
                self.breaker.record_failure(self.net.clock_s)
                attempt += 1
                self.retries += 1
                if attempt >= self.max_attempts:
                    raise RemoteUnavailableError(
                        f"{op} failed after {attempt} attempt(s): {exc}"
                    ) from exc
                delay = self.backoff.delay(attempt - 1)
                if self.net.clock_s + delay - start > self.deadline_s:
                    raise RemoteUnavailableError(
                        f"{op} deadline of {self.deadline_s}s exhausted "
                        f"after {attempt} attempt(s): {exc}"
                    ) from exc
                self.net.advance(delay)
                if not self.breaker.allow(self.net.clock_s):
                    self.fast_failures += 1
                    raise RemoteUnavailableError(
                        f"circuit breaker opened while retrying {op}"
                    ) from exc
                continue
            self.breaker.record_success(self.net.clock_s)
            self._latencies.append(self.net.clock_s - before)
            if len(self._latencies) > 512:
                del self._latencies[:-512]
            return result

    # ------------------------------------------------------------------
    # object operations
    # ------------------------------------------------------------------
    def put_object(self, key: str, data: bytes) -> str:
        """Multipart upload with per-part CRC32 and commit-time repair.

        Parts are uploaded (each under the retry budget), then
        complete-multipart verifies them against the declared CRCs; a
        torn or flipped part fails the commit, is re-uploaded, and the
        commit is retried — converging to exactly one verified
        generation.
        """
        chunks = [data[i : i + self.part_bytes] for i in range(0, len(data), self.part_bytes)] or [b""]
        declared = [(n + 1, zlib.crc32(chunk)) for n, chunk in enumerate(chunks)]
        upload_id = self._call(
            "create_multipart", lambda: self.service.create_multipart(key)
        )
        for round_no in range(self.max_attempts):
            for (part_number, crc), chunk in zip(declared, chunks):
                self._call(
                    f"upload_part:{part_number}",
                    lambda damaged, n=part_number, c=crc: self.service.upload_part(
                        upload_id, n, damaged, c
                    ),
                    payload=chunk,
                )
            try:
                return self._call(
                    "complete_multipart",
                    lambda: self.service.complete_multipart(upload_id, declared),
                )
            except RemoteProtocolError as exc:
                # A part arrived torn; re-upload everything and re-commit.
                log.warning(
                    "multipart commit of %s rejected (%s); re-uploading parts", key, exc
                )
                last_error = exc
        raise RemoteUnavailableError(
            f"multipart upload of {key!r} failed to commit after "
            f"{self.max_attempts} round(s)"
        ) from last_error

    def get_object(self, key: str, *, expect_etag: str | None = None) -> tuple[bytes, dict]:
        """Hedged GET with bounded-staleness detection.

        A first read may be served from the key's previous version by a
        ``stale_read`` fault; when the caller knows the ETag it wrote,
        the mismatch is detected and a consistent re-read (immune to
        staleness) fetches the fresh generation — staleness is bounded
        by exactly one round trip.
        """
        data, meta = self._call(
            "get_object",
            lambda: self.service.get_object(key),
            stale_execute=lambda: self.service.get_object(key, stale=True),
            hedged=True,
        )
        if expect_etag is not None and meta.get("etag") != expect_etag:
            self.stale_rereads += 1
            data, meta = self._call(
                "get_object", lambda: self.service.get_object(key), hedged=True
            )
        return data, meta

    def head_object(self, key: str) -> dict:
        return self._call(
            "head_object",
            lambda: self.service.head_object(key),
            stale_execute=lambda: self.service.head_object(key, stale=True),
        )

    def delete_object(self, key: str) -> None:
        self._call("delete_object", lambda: self.service.delete_object(key))

    def list_objects(self, prefix: str = "") -> list[str]:
        return self._call("list_objects", lambda: self.service.list_objects(prefix))


# ----------------------------------------------------------------------
# the CheckpointStore backend
# ----------------------------------------------------------------------
@dataclass
class SyncOutcome:
    """Per-object result of draining the spill journal."""

    name: str
    step: int
    action: str  # uploaded | deleted | deferred | corrupt-spill
    detail: str = ""

    def render(self) -> str:
        text = f"{self.name} step {self.step}: {self.action}"
        return f"{text} ({self.detail})" if self.detail else text


class RemoteStore(CheckpointStore):
    """Checkpoints in a (simulated) remote object store, spilling locally.

    One object per generation, keyed ``<run>/it<NNNNNNNN>.npz``, written
    as a multipart upload whose complete-multipart is the commit point.
    When the remote is unavailable (circuit breaker open or retry budget
    exhausted) a save *degrades* instead of failing: the generation goes
    to the local write-behind journal under ``<dir>/spill`` and is
    drained by :meth:`sync` once the remote heals — opportunistically
    after the next successful save (write-behind), or explicitly via the
    ``checkpoints sync`` CLI.  Loads and listings union the spill so a
    resume works even mid-outage; deletes during an outage leave
    tombstones that :meth:`sync` applies later.
    """

    kind = "remote"

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        client: RemoteClient | None = None,
        seed: int = 0,
        fault_plan=None,
        part_bytes: int = 1 << 16,
        deadline_s: float = 30.0,
        max_attempts: int = 8,
        auto_sync: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if client is None:
            service = ObjectService(self.directory / "objects")
            net = NetworkSimulator(seed=seed, fault_plan=fault_plan)
            client = RemoteClient(
                service,
                net,
                deadline_s=deadline_s,
                max_attempts=max_attempts,
                part_bytes=part_bytes,
            )
        self.client = client
        #: local write-behind journal (same framed format as ``--store local``).
        self.spill = LocalDirStore(self.directory / "spill")
        self.auto_sync = auto_sync
        #: (name, step) deletes deferred because the remote was down.
        self._pending_deletes: set[tuple[str, int]] = set()
        #: ETags of generations this instance wrote (read-your-writes).
        self._etags: dict[tuple[str, int], str] = {}
        #: human-readable degradation events, newest last.
        self.events: list[str] = []

    @property
    def service(self) -> ObjectService:
        return self.client.service

    @property
    def net(self) -> NetworkSimulator:
        return self.client.net

    # ------------------------------------------------------------------
    @staticmethod
    def _key(name: str, step: int) -> str:
        return f"{safe_name(name)}/it{step:08d}.npz"

    def _note(self, message: str) -> None:
        self.events.append(message)
        log.warning("%s", message)

    # ------------------------------------------------------------------
    def save(self, name: str, step: int, arrays: Mapping[str, np.ndarray]) -> None:
        """Upload one generation; spill locally if the remote is down.

        A save **never blocks algorithm progress** on the network: the
        only error that escapes is a local-disk failure of the spill
        journal itself.
        """
        payload = npz_bytes(arrays)
        self._pending_deletes.discard((name, step))
        try:
            etag = self.client.put_object(self._key(name, step), payload)
        except RemoteUnavailableError as exc:
            self.spill.save(name, step, arrays)
            self._note(
                f"remote unavailable; spilled {name} step {step} to the local "
                f"write-behind journal ({exc})"
            )
            return
        self._etags[(name, step)] = etag
        self.spill.delete(name, step)  # the remote copy supersedes any spill
        if self.auto_sync and (self._pending_deletes or self.spill.names()):
            # Write-behind drain: the remote just answered, so it healed.
            self.sync(best_effort=True)

    def load(self, name: str, step: int) -> dict[str, np.ndarray]:
        if (name, step) in self._pending_deletes:
            raise CheckpointError(f"checkpoint {name} step {step} is deleted (pending sync)")
        key = self._key(name, step)
        try:
            data, meta = self.client.get_object(
                key, expect_etag=self._etags.get((name, step))
            )
        except RemoteUnavailableError:
            if step in self.spill.steps(name):
                self._note(
                    f"remote unavailable; served {name} step {step} from the spill journal"
                )
                return self.spill.load(name, step)
            raise
        except RemoteProtocolError as exc:
            if step in self.spill.steps(name):
                return self.spill.load(name, step)
            raise CheckpointError(f"no remote checkpoint {name} step {step}: {exc}") from exc
        if len(data) != meta.get("bytes") or zlib.crc32(data) != meta.get("crc32"):
            raise CheckpointCorruptError(
                f"remote object {key}: payload does not match its committed "
                "CRC32/length (torn or corrupted object)"
            )
        return npz_arrays(data)

    def _listed(self, name: str | None = None, note: str = "") -> list[tuple[str, int]]:
        """One LIST: ``(safe name, step)`` of every remote generation (of
        ``name`` only, when given); none, after ``note``, during an outage."""
        prefix = "" if name is None else safe_name(name) + "/"
        try:
            keys = self.client.list_objects(prefix=prefix)
        except RemoteUnavailableError:
            if note:
                self._note(note)
            return []
        matches = (_OBJECT_KEY_RE.match(key) for key in keys)
        return [
            (m["name"], int(m["step"])) for m in matches if m and prefix in ("", m["name"] + "/")
        ]

    def _all_steps(self, name: str, note: str = "") -> set[int]:
        # Read-your-writes: generations this instance uploaded are known
        # even while the remote cannot answer a LIST.
        steps = set(self.spill.steps(name))
        steps.update(s for (n, s) in self._etags if n == name)
        steps.update(s for _, s in self._listed(name, note))
        return steps

    def steps(self, name: str) -> list[int]:
        note = f"remote unavailable; listing {name} from the spill journal only"
        found = self._all_steps(name, note)
        return sorted(s for s in found if (name, s) not in self._pending_deletes)

    def names(self) -> list[str]:
        found = set(self.spill.names())
        found.update(n for (n, _) in self._etags)
        note = "remote unavailable; listing names from the spill journal only"
        found.update(n for n, _ in self._listed(note=note))
        return sorted(
            n for n in found
            if any((n, s) not in self._pending_deletes for s in self._all_steps(n))
        )

    def delete(self, name: str, step: int) -> None:
        """Delete a generation; during an outage, leave a tombstone."""
        self.spill.delete(name, step)
        self._etags.pop((name, step), None)
        try:
            self.client.delete_object(self._key(name, step))
        except RemoteUnavailableError as exc:
            self._pending_deletes.add((name, step))
            self._note(
                f"remote unavailable; tombstoned delete of {name} step {step} ({exc})"
            )

    def size_bytes(self, name: str, step: int) -> int | None:
        try:
            return int(self.client.head_object(self._key(name, step))["bytes"])
        except (RemoteUnavailableError, RemoteProtocolError, KeyError):
            return self.spill.size_bytes(name, step)

    # ------------------------------------------------------------------
    def pending_spill(self) -> list[tuple[str, int]]:
        """Generations sitting in the local journal, awaiting upload."""
        return [
            (name, step)
            for name in self.spill.names()
            for step in self.spill.steps(name)
        ]

    def sync(self, *, best_effort: bool = False) -> list[SyncOutcome]:
        """Drain the write-behind journal into the healed remote.

        Applies tombstoned deletes first, then uploads every spilled
        generation, removing each from the journal once its multipart
        commit succeeds.  Returns per-object outcomes; with
        ``best_effort`` (the opportunistic in-run drain) the first
        still-unavailable answer stops the pass instead of hammering a
        dead remote.
        """
        outcomes: list[SyncOutcome] = []
        for name, step in sorted(self._pending_deletes):
            try:
                self.client.delete_object(self._key(name, step))
            except RemoteUnavailableError as exc:
                outcomes.append(SyncOutcome(name, step, "deferred", str(exc)))
                if best_effort:
                    return outcomes
                continue
            self._pending_deletes.discard((name, step))
            outcomes.append(SyncOutcome(name, step, "deleted"))
        for name, step in self.pending_spill():
            try:
                arrays = self.spill.load(name, step)
            except CheckpointError as exc:
                outcomes.append(SyncOutcome(name, step, "corrupt-spill", str(exc)))
                continue
            try:
                etag = self.client.put_object(self._key(name, step), npz_bytes(arrays))
            except RemoteUnavailableError as exc:
                outcomes.append(SyncOutcome(name, step, "deferred", str(exc)))
                if best_effort:
                    break
                continue
            self._etags[(name, step)] = etag
            self.spill.delete(name, step)
            outcomes.append(SyncOutcome(name, step, "uploaded", f"etag {etag}"))
        return outcomes

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def corrupt(self, name: str, step: int) -> None:
        """Flip a byte of the stored generation (remote copy when present)."""
        key = self._key(name, step)
        if (self.service.root / key).exists():
            self.service.corrupt_object(key)
        elif step in self.spill.steps(name):
            self.spill.corrupt(name, step)
        else:
            raise CheckpointError(f"no generation {name} step {step} to corrupt")
