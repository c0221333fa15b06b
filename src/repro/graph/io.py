"""Edge-list persistence: whitespace text format and NumPy ``.npz``.

Both savers are crash-safe (:func:`~repro.durable.durable_write`): an
interrupted save never leaves a truncated file under the final name.
Both loaders run the strict
:func:`~repro.graph.validation.validate_edgelist` gate *before*
narrowing ids to the 32-bit vertex dtype, so an out-of-range, negative
or overflowing id is reported as a typed
:class:`~repro.errors.ValidationError` naming the file instead of
silently corrupting CSR construction downstream.
"""

from __future__ import annotations

import os
import zipfile

import numpy as np

from .._types import VID_DTYPE
from ..durable import durable_write
from ..errors import GraphFormatError, ValidationError
from .edgelist import EdgeList
from .validation import validate_edgelist

__all__ = ["save_npz", "load_npz", "save_text", "load_text", "load"]


def save_npz(path: str | os.PathLike, edges: EdgeList) -> None:
    """Save as a compressed ``.npz`` with ``num_vertices``, ``src``, ``dst``.

    Mirrors :func:`numpy.savez_compressed` in appending ``.npz`` when the
    path has no extension.  The write is atomic (tmp + ``os.replace``).
    """
    final = os.fspath(path)
    if not final.endswith(".npz"):
        final += ".npz"
    with durable_write(final) as fh:
        np.savez_compressed(
            fh,
            num_vertices=np.int64(edges.num_vertices),
            src=edges.src,
            dst=edges.dst,
        )


def load_npz(path: str | os.PathLike) -> EdgeList:
    """Load an edge list saved by :func:`save_npz`."""
    try:
        with np.load(path) as data:
            try:
                num_vertices = int(data["num_vertices"])
                src, dst = data["src"], data["dst"]
            except KeyError as exc:
                raise GraphFormatError(f"{path}: missing array {exc}") from None
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise ValidationError(f"{path}: not a valid .npz (truncated or corrupt): {exc}") from None
    validate_edgelist(num_vertices, src, dst, source=os.fspath(path))
    return EdgeList(num_vertices, src, dst)


def save_text(path: str | os.PathLike, edges: EdgeList) -> None:
    """Save in the common SNAP-style text format: header + one edge per line.

    Atomic like :func:`save_npz`.
    """
    with durable_write(path, "w", encoding="ascii") as fh:
        fh.write(f"# vertices {edges.num_vertices} edges {edges.num_edges}\n")
        np.savetxt(fh, np.column_stack([edges.src, edges.dst]), fmt="%d")


def _parse_header_vertices(path: str | os.PathLike, first: str) -> int:
    """Vertex count from a ``# vertices N ...`` header line, or -1."""
    if not first.startswith("#"):
        return -1
    tokens = first.split()
    if "vertices" not in tokens:
        return -1
    idx = tokens.index("vertices") + 1
    if idx >= len(tokens):
        raise GraphFormatError(f"{path}: '# vertices' header is missing its count")
    try:
        num_vertices = int(tokens[idx])
    except ValueError:
        raise GraphFormatError(
            f"{path}: '# vertices' count {tokens[idx]!r} is not an integer"
        ) from None
    if num_vertices < 0:
        raise GraphFormatError(f"{path}: negative vertex count {num_vertices} in header")
    return num_vertices


def load_text(path: str | os.PathLike) -> EdgeList:
    """Load a SNAP-style text edge list.

    If the file carries our ``# vertices N`` header, N is honoured — and
    every row id is checked against it; otherwise |V| is inferred as
    ``max id + 1``.
    """
    with open(path, encoding="ascii") as fh:
        num_vertices = _parse_header_vertices(path, fh.readline())
    import warnings

    with warnings.catch_warnings():
        # Empty files legitimately decode to an empty graph.
        warnings.filterwarnings("ignore", message=".*input contained no data.*")
        try:
            pairs = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
        except ValueError as exc:
            raise GraphFormatError(f"{path}: malformed edge row: {exc}") from None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.shape[1] != 2:
        raise GraphFormatError(f"{path}: expected two columns, got {pairs.shape[1]}")
    validate_edgelist(
        num_vertices if num_vertices >= 0 else None,
        pairs[:, 0],
        pairs[:, 1],
        source=os.fspath(path),
    )
    if num_vertices < 0:
        num_vertices = int(pairs.max()) + 1 if pairs.size else 0
    return EdgeList(num_vertices, pairs[:, 0].astype(VID_DTYPE), pairs[:, 1].astype(VID_DTYPE))


def load(path: str | os.PathLike) -> EdgeList:
    """Load an edge-list file by its extension: ``.npz``, else text."""
    return (load_npz if os.fspath(path).endswith(".npz") else load_text)(path)
