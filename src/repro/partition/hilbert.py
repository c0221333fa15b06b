"""Hilbert space-filling curve edge ordering (paper §IV.C, Figure 7).

An edge ``(u, v)`` is a point in the 2-D grid ``[0, 2^k) x [0, 2^k)``.
Sorting edges by their Hilbert-curve index keeps successive edges close in
*both* coordinates, improving locality of both the source-array reads and
the destination-array updates — the paper measures up to 16.2 % speedup
over CSR-order within COO partitions.

Both directions of the classic iterative conversion are implemented fully
vectorised over numpy arrays (one pass per bit of the coordinates).
"""

from __future__ import annotations

import numpy as np

__all__ = ["hilbert_index", "hilbert_point", "hilbert_sort_order", "order_bits_for"]


def order_bits_for(num_vertices: int) -> int:
    """Smallest ``k`` such that all vertex ids fit in ``[0, 2^k)``."""
    if num_vertices <= 1:
        return 1
    return int(num_vertices - 1).bit_length()


def hilbert_index(order_bits: int, x, y) -> np.ndarray:
    """Hilbert-curve distance of each point ``(x[i], y[i])``.

    Parameters
    ----------
    order_bits:
        The grid is ``[0, 2**order_bits)`` squared.
    x, y:
        Integer coordinate arrays (or scalars).

    Returns
    -------
    ``uint64`` array of curve distances, a bijection onto
    ``[0, 4**order_bits)``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.uint64)).copy()
    y = np.atleast_1d(np.asarray(y, dtype=np.uint64)).copy()
    if x.shape != y.shape:
        raise ValueError("x and y must have identical shapes")
    d = np.zeros(x.shape, dtype=np.uint64)
    s = np.uint64(1) << np.uint64(order_bits - 1)
    one = np.uint64(1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.uint64)
        ry = ((y & s) > 0).astype(np.uint64)
        d += s * s * ((np.uint64(3) * rx) ^ ry)
        # Rotate the quadrant so the sub-curve is oriented consistently.
        rot = ry == 0
        flip = rot & (rx == one)
        x[flip] = s - one - x[flip]
        y[flip] = s - one - y[flip]
        tmp = x[rot].copy()
        x[rot] = y[rot]
        y[rot] = tmp
        s >>= one
    return d


def hilbert_point(order_bits: int, d) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`hilbert_index`: curve distance → ``(x, y)``."""
    t = np.atleast_1d(np.asarray(d, dtype=np.uint64)).copy()
    x = np.zeros(t.shape, dtype=np.uint64)
    y = np.zeros(t.shape, dtype=np.uint64)
    one = np.uint64(1)
    s = np.uint64(1)
    top = np.uint64(1) << np.uint64(order_bits)
    while s < top:
        rx = one & (t // np.uint64(2))
        ry = one & (t ^ rx)
        # Rotate back.
        rot = ry == 0
        flip = rot & (rx == one)
        x[flip] = s - one - x[flip]
        y[flip] = s - one - y[flip]
        tmp = x[rot].copy()
        x[rot] = y[rot]
        y[rot] = tmp
        x += s * rx
        y += s * ry
        t //= np.uint64(4)
        s <<= one
    return x, y


def hilbert_sort_order(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
    """Permutation sorting edges into Hilbert order (unstable: tied indices are equal edges)."""
    bits = order_bits_for(num_vertices)
    idx = hilbert_index(bits, src, dst)
    return np.argsort(idx)
