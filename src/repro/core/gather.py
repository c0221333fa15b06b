"""Vectorised gather of ragged adjacency slices.

The central primitive of the indexed (CSR/CSC) traversal kernels: given a
compressed index and a set of vertices, materialise the concatenation of
their adjacency slices without a Python-level loop.

The layouts *store* ids as ``int32``; what this gathers comes back as
``intp`` ids, the machine word numpy converts any index array to.  Those
ids are what the gathered phases hand ``process_edges``, and an operator
indexing with them skips that conversion (numpy 2.4 indexes with ``int32``
ids at about half the speed).  Only gathered edges widen — at most
``|E|/20`` of them in a sparse phase, one task's run in a CSC phase.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gather_adjacency"]


def gather_adjacency(
    index: np.ndarray,
    neighbors: np.ndarray,
    vertices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate adjacency slices of ``vertices``.

    Parameters
    ----------
    index, neighbors:
        A dense compressed layout: the slice of vertex ``v`` is
        ``neighbors[index[v]:index[v+1]]``.
    vertices:
        Integer vertex ids whose slices to gather (any order, duplicates
        allowed; an empty list of any dtype gathers nothing).

    Returns
    -------
    (keys, values, pos):
        ``values`` is the concatenation of the slices; ``keys[i]`` is the
        vertex whose slice produced ``values[i]``, and ``pos[i]`` where in
        ``neighbors`` (and in any array parallel to it, such as cached edge
        weights) it was read.  Edges appear grouped by the order of
        ``vertices``.  ``keys`` and ``values`` are ``intp``, ``pos`` is
        ``index``'s dtype.
    """
    vertices = np.asarray(vertices)
    v = vertices.astype(np.intp, casting="same_kind" if vertices.size else "unsafe", copy=False)
    starts = index[v]
    lens = index[1:][v]
    lens -= starts
    total = int(lens.sum())
    # Classic ragged-gather: positions = repeat(start - exclusive_cumlen)
    # + arange(total) yields each slice's absolute offsets, concatenated.
    starts -= np.cumsum(lens)
    starts += lens
    pos = np.repeat(starts, lens)
    pos += np.arange(total, dtype=pos.dtype)
    keys = np.repeat(v, lens)
    return keys, neighbors[pos].astype(np.intp), pos
