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
three parts and raises the typed
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

    Yields the open file.  :class:`OSError` from the body, the sync or
    the rename removes the sibling and propagates.
    """
    final = os.fspath(path)
    tmp = final + ".tmp"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except OSError:
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


def write_framed(path: Path, magic: bytes, payload: bytes) -> None:
    """Durably write ``magic + header + payload``."""
    write_bytes(path, magic, _HEADER.pack(zlib.crc32(payload), len(payload)), payload)


def read_framed(path: Path, magic: bytes) -> bytes:
    """Read and verify a framed container; returns the payload."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"no file at {path}") from None
    header_len = len(magic) + _HEADER.size
    if len(raw) < header_len or raw[: len(magic)] != magic:
        raise CheckpointCorruptError(f"{path}: bad magic or truncated header")
    crc, length = _HEADER.unpack_from(raw, len(magic))
    payload = raw[header_len:]
    if len(payload) != length:
        raise CheckpointCorruptError(
            f"{path}: truncated payload ({len(payload)} of {length} bytes)"
        )
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
