"""The one durable, atomic file write, and the CRC framing on top of it.

Checkpoint containers, object-store blobs, grid blocks and saved edge
lists all reach disk the same way: write a ``.tmp`` sibling, flush,
``fsync``, ``os.replace`` it over the final name, and unlink the sibling
if any of that fails.  A crash therefore leaves the previous file or the
new one under the final name, never a truncated one, and the ``fsync``
before the rename is what makes the new one survive a power loss.

A *framed* file is ``magic + (CRC32, payload length) + payload``: the
format of checkpoint containers, shards and manifests
(:mod:`repro.resilience.store`) and of the out-of-core grid's blocks and
manifest (:mod:`repro.layout.grid`).  :func:`read_framed` verifies all
three parts, and optionally that the header's CRC is the one a manifest
recorded, in one pass over the payload; it raises the typed
:class:`~repro.errors.CheckpointCorruptError` on any torn or flipped
byte.
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

from .errors import CheckpointCorruptError, CheckpointError

__all__ = ["durable_write", "write_bytes", "write_framed", "read_framed", "flip_last_byte"]

_HEADER = struct.Struct(">IQ")  # crc32, payload length


@contextmanager
def durable_write(path: str | os.PathLike, mode: str = "wb", encoding: str | None = None):
    """Open a tmp sibling of ``path`` for writing; commit it on exit.

    Yields the open file.  Any exception from the body, the sync or the
    rename removes the sibling and propagates unchanged.
    """
    final = os.fspath(path)
    tmp = final + ".tmp"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_bytes(path: Path, *chunks: bytes) -> None:
    """Durably write ``chunks`` as one file; an :class:`OSError` becomes
    the typed :class:`~repro.errors.CheckpointError`."""
    try:
        with durable_write(path) as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise CheckpointError(f"cannot write {path}: {exc}") from exc


def write_framed(path: Path, magic: bytes, *payload: bytes) -> int:
    """Durably write ``magic + header + payload``, the payload given as one
    or more byte chunks; returns the header's CRC32 of the payload, so a
    manifest records it without a second pass."""
    crc = 0
    for chunk in payload:
        crc = zlib.crc32(chunk, crc)
    write_bytes(path, magic, _HEADER.pack(crc, sum(map(len, payload))), *payload)
    return crc


def read_framed(path: Path, magic: bytes, crc32: int | None = None) -> memoryview:
    """Read and verify a framed container; returns the payload as a view of
    the one buffer read.  ``crc32``, a manifest's record of the payload,
    must also be the header's, so one CRC pass over the payload checks both."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"no file at {path}") from None
    header_len = len(magic) + _HEADER.size
    if len(raw) < header_len or raw[: len(magic)] != magic:
        raise CheckpointCorruptError(f"{path}: bad magic or truncated header")
    crc, length = _HEADER.unpack_from(raw, len(magic))
    payload = memoryview(raw)[header_len:]
    if len(payload) != length:
        raise CheckpointCorruptError(
            f"{path}: truncated payload ({len(payload)} of {length} bytes)"
        )
    if crc32 is not None and crc != crc32:
        raise CheckpointCorruptError(f"{path}: header CRC does not match the manifest")
    if zlib.crc32(payload) != crc:
        raise CheckpointCorruptError(f"{path}: CRC32 mismatch")
    return payload


def flip_last_byte(path: Path) -> None:
    """Corrupt a file in place (fault injection only)."""
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)[0]
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last ^ 0xFF]))
