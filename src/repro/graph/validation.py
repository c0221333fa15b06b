"""Strict input validation for edge lists (the loaders' front door).

Loaders historically trusted their inputs: a row with an id beyond the
header's vertex count, a negative id produced by int32 narrowing of a
huge id, or a NaN weight would flow into CSR construction and corrupt it
far from the source.  :func:`validate_edgelist` is the single gate used
by :mod:`repro.graph.io` and the CLI; it raises the typed
:class:`~repro.errors.ValidationError` with the offending file named, so
a bad input is a diagnosis instead of a crash three layers later.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

__all__ = ["validate_edgelist", "validate_weights"]


def _fail(source: str | None, message: str) -> None:
    prefix = f"{source}: " if source else ""
    raise ValidationError(prefix + message)


def validate_edgelist(
    num_vertices: int | None,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    source: str | None = None,
) -> None:
    """Validate raw edge arrays before they are narrowed into an EdgeList.

    Parameters
    ----------
    num_vertices:
        The declared vertex count, or ``None`` when the loader will infer
        it (only negativity can be checked then).
    src, dst:
        Parallel id arrays, in whatever (wide) dtype the loader parsed.
    weights:
        Optional parallel weight array; must be finite if given.
    source:
        File name (or other provenance) used to prefix error messages.
    """
    src = np.asarray(src)
    dst = np.asarray(dst)
    if src.ndim != 1 or dst.ndim != 1:
        _fail(source, f"edge arrays must be 1-D, got {src.ndim}-D and {dst.ndim}-D")
    if src.shape != dst.shape:
        _fail(
            source,
            f"truncated edge list: {src.size} sources but {dst.size} destinations",
        )
    for name, arr in (("src", src), ("dst", dst)):
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            _fail(source, f"{name} ids must be integers, got dtype {arr.dtype}")
    if num_vertices is not None and num_vertices < 0:
        _fail(source, f"vertex count must be non-negative, got {num_vertices}")
    if src.size:
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0:
            _fail(source, f"negative vertex id {lo}")
        if num_vertices is not None and hi >= num_vertices:
            _fail(
                source,
                f"vertex id {hi} out of range for declared |V|={num_vertices}",
            )
    if weights is not None:
        validate_weights(weights, num_edges=src.size, source=source)


def validate_weights(
    weights: np.ndarray, *, num_edges: int | None = None, source: str | None = None
) -> None:
    """Reject NaN/inf weights and length mismatches."""
    weights = np.asarray(weights)
    if weights.ndim != 1:
        _fail(source, f"weights must be 1-D, got {weights.ndim}-D")
    if num_edges is not None and weights.size != num_edges:
        _fail(
            source,
            f"truncated weights: {weights.size} values for {num_edges} edges",
        )
    if weights.size and not np.all(np.isfinite(weights)):
        bad = int(np.flatnonzero(~np.isfinite(weights.astype(np.float64)))[0])
        _fail(source, f"non-finite weight at edge {bad}: {weights[bad]!r}")
