"""One compiled gather of adjacency slices.

The primitive of the indexed (CSR/CSC) traversal kernels: some vertices'
adjacency slices, and those of one array parallel to the edges (cached
weights), concatenated by scipy's compiled row copy (``csr_row_index``,
the loop behind ``csr_matrix[rows]``).  It reads ids, index and neighbours
as one integer type and checks no bounds: layouts are gathered in one
width (:func:`narrow_layout`) and every argument is checked here first.
The ids come back as ``intp``, which an operator indexes with at about
twice the speed of ``int32`` (numpy 2.4); only gathered edges widen.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse._sparsetools import csr_row_index

__all__ = ["gather_adjacency", "narrow_layout", "slice_lengths"]

_UNSIGNED = {np.dtype(np.int32): np.uint32, np.dtype(np.int64): np.uint64}


def narrow_layout(index: np.ndarray, neighbors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(index, neighbors)`` in the gather's one width: an ``int32`` copy of
    the index (|V| + 1 entries), or with |E| >= 2**31 ``int64`` neighbours."""
    width = np.int32 if int(index[-1]) <= np.iinfo(np.int32).max else np.int64
    return index.astype(width), neighbors.astype(width, copy=False)


def _checked(index: np.ndarray, vertices, lengths=None) -> tuple[np.ndarray, np.ndarray]:
    """``(vertices, lengths)``: the ids in ``index``'s dtype (an empty list of
    any dtype passes) and their slice lengths, read through the ids'
    unsigned view, on which ``take`` raises ``IndexError`` for an id < 0 or
    >= the rows.  Lengths handed in, and ``int64`` ids (whose view numpy
    wraps back), have their ids compared instead."""
    vertices = np.asarray(vertices)
    if index.dtype not in _UNSIGNED:
        raise TypeError(f"a gathered index is int32 or int64, not {index.dtype}")
    if not vertices.size:
        vertices = np.empty(0, index.dtype)
    elif vertices.dtype != index.dtype:
        raise TypeError(f"{vertices.dtype} ids, {index.dtype} index: widths must match")
    vertices = np.ascontiguousarray(vertices).reshape(-1)
    rows = vertices.view(_UNSIGNED[vertices.dtype])
    if lengths is not None or rows.itemsize == 8:
        if rows.size and int(rows.max()) >= index.size - 1:
            raise IndexError(f"vertex ids out of range for {index.size - 1} rows")
        rows = vertices
    if lengths is None:
        lengths = index[1:].take(rows)
        lengths -= index.take(vertices)
    return vertices, lengths


def slice_lengths(index: np.ndarray, vertices) -> np.ndarray:
    """``index[v + 1] - index[v]`` for each of ``vertices``, with the gather's
    refusals; a caller that holds them hands them back as its ``lengths``."""
    return _checked(index, vertices)[1]


def gather_adjacency(
    index: np.ndarray,
    neighbors: np.ndarray,
    vertices: np.ndarray,
    parallel: np.ndarray | None = None,
    *,
    lengths: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(keys, values, gathered)``: ``values`` the slices
    ``neighbors[index[v]:index[v+1]]`` of ``vertices`` (ids of the layout's
    width, any order, duplicates allowed; an empty list of any dtype
    gathers nothing) concatenated in their order, ``keys[i]`` the vertex
    whose slice held ``values[i]`` (both ``intp``), ``gathered[i]`` that
    edge's entry of ``parallel`` (1-D, C-contiguous, one entry per edge;
    ``None`` without).  ``lengths``, :func:`slice_lengths` of these very
    ids, size the output.  Refused before anything runs: an id < 0 or >=
    the rows (``IndexError``); mixed widths, a non-empty float list or
    another ``parallel`` (``TypeError``)."""
    vertices, lengths = _checked(index, vertices, lengths)
    if neighbors.dtype != index.dtype:
        raise TypeError(f"{neighbors.dtype} neighbors, {index.dtype} index: widths must match")
    if parallel is not None and (
        parallel.ndim != 1 or not parallel.flags.c_contiguous or parallel.size != neighbors.size
    ):
        raise TypeError("a parallel array is 1-D, C-contiguous and has one entry per edge")
    if lengths.shape != vertices.shape or lengths.dtype != index.dtype:
        raise TypeError("lengths are slice_lengths(index, vertices)")
    values = np.empty(int(lengths.sum()), index.dtype)
    gathered = None if parallel is None else np.empty(values.size, parallel.dtype)
    # without ``parallel`` the loop's second copy lands on its first
    extra, out = (neighbors, values) if parallel is None else (parallel, gathered)
    csr_row_index(vertices.size, vertices, index, neighbors, extra, values, out)
    keys = np.repeat(vertices.astype(np.intp), lengths)
    return keys, values.astype(np.intp, copy=False), gathered
