"""The one durable, atomic file write.

Checkpoint containers, object-store blobs and saved edge lists all
reach disk the same way: write a ``.tmp`` sibling, flush, ``fsync``,
``os.replace`` it over the final name, and unlink the sibling if any of
that fails.  A crash therefore leaves the previous file or the new one
under the final name, never a truncated one, and the ``fsync`` before
the rename is what makes the new one survive a power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["durable_write"]


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
