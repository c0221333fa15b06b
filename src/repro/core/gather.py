"""Vectorised gather of ragged adjacency slices.

The central primitive of the indexed (CSR/CSC) traversal kernels: given a
compressed index and a set of vertices, materialise the concatenation of
their adjacency slices without a Python-level loop.
"""

from __future__ import annotations

import numpy as np

from .._types import EID_DTYPE, VID_DTYPE

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
        Vertex ids whose slices to gather (any order, duplicates allowed).

    Returns
    -------
    (keys, values, pos):
        ``values`` is the concatenation of the slices; ``keys[i]`` is the
        vertex whose slice produced ``values[i]``, and ``pos[i]`` where in
        ``neighbors`` (and in any array parallel to it, such as cached edge
        weights) it was read.  Edges appear grouped by the order of
        ``vertices``.
    """
    vertices = np.asarray(vertices)
    if vertices.size == 0:  # an empty list indexes nothing, whatever its dtype
        vertices = vertices.astype(VID_DTYPE)
    starts = index[vertices].astype(EID_DTYPE)
    lens = (index[vertices.astype(np.int64) + 1] - starts).astype(EID_DTYPE)
    total = int(lens.sum())
    # Classic ragged-gather: positions = repeat(start - exclusive_cumlen)
    # + arange(total) yields each slice's absolute offsets, concatenated.
    excl = np.cumsum(lens) - lens
    pos = np.repeat(starts - excl, lens) + np.arange(total, dtype=EID_DTYPE)
    keys = np.repeat(vertices.astype(VID_DTYPE), lens)
    return keys, neighbors[pos], pos
