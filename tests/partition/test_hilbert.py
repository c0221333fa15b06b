"""Unit tests for the Hilbert curve (paper §IV.C, Figure 7)."""

import numpy as np
import pytest

from repro.partition.hilbert import hilbert_index, hilbert_sort_order, order_bits_for
from tests.references import hilbert_point


def test_order_bits():
    assert order_bits_for(0) == 1
    assert order_bits_for(1) == 1
    assert order_bits_for(2) == 1
    assert order_bits_for(3) == 2
    assert order_bits_for(1024) == 10
    assert order_bits_for(1025) == 11


def test_first_order_curve():
    # Order-1 Hilbert curve: (0,0)=0, (0,1)=1, (1,1)=2, (1,0)=3.
    xs = np.array([0, 0, 1, 1])
    ys = np.array([0, 1, 1, 0])
    assert hilbert_index(1, xs, ys).tolist() == [0, 1, 2, 3]


def test_bijection_small_grid():
    bits = 4
    side = 1 << bits
    xs, ys = np.meshgrid(np.arange(side), np.arange(side))
    d = hilbert_index(bits, xs.ravel(), ys.ravel())
    assert np.unique(d).size == side * side
    assert d.min() == 0
    assert d.max() == side * side - 1


def test_roundtrip():
    bits = 5
    d = np.arange(1 << (2 * bits), dtype=np.uint64)
    x, y = hilbert_point(bits, d)
    assert np.array_equal(hilbert_index(bits, x, y), d)


def test_adjacent_indices_are_adjacent_points():
    """Hilbert locality: consecutive curve positions differ by 1 step."""
    bits = 4
    d = np.arange(1 << (2 * bits), dtype=np.uint64)
    x, y = hilbert_point(bits, d)
    dx = np.abs(np.diff(x.astype(np.int64)))
    dy = np.abs(np.diff(y.astype(np.int64)))
    assert np.all(dx + dy == 1)


def test_locality_beats_row_major():
    """Mean 2-D distance between successive points beats row-major order."""
    bits = 5
    side = 1 << bits
    d = np.arange(side * side, dtype=np.uint64)
    x, y = hilbert_point(bits, d)
    hilbert_jump = np.abs(np.diff(x.astype(int))) + np.abs(np.diff(y.astype(int)))
    # Row-major traversal jumps `side` at each row boundary.
    row_x = np.repeat(np.arange(side), side)
    row_y = np.tile(np.arange(side), side)
    row_jump = np.abs(np.diff(row_x)) + np.abs(np.diff(row_y))
    assert hilbert_jump.mean() < row_jump.mean()


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        hilbert_index(3, np.array([1, 2]), np.array([1]))


def test_sort_order_is_permutation(small_rmat):
    order = hilbert_sort_order(small_rmat.src, small_rmat.dst, small_rmat.num_vertices)
    assert np.array_equal(np.sort(order), np.arange(small_rmat.num_edges))


def test_sort_order_sorts_by_curve(small_rmat):
    bits = order_bits_for(small_rmat.num_vertices)
    order = hilbert_sort_order(small_rmat.src, small_rmat.dst, small_rmat.num_vertices)
    d = hilbert_index(bits, small_rmat.src[order], small_rmat.dst[order])
    assert np.all(np.diff(d.astype(np.int64)) >= 0)


def test_scalar_inputs():
    assert int(hilbert_index(2, 0, 0)[0]) == 0
