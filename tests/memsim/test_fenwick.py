"""Tests of the Fenwick tree behind the scalar stack-distance oracle."""

import numpy as np
import pytest

from tests.references import Fenwick


def test_empty_tree():
    f = Fenwick(0)
    assert f.prefix_sum(-1) == 0


def test_point_updates_and_prefix_sums():
    f = Fenwick(10)
    f.add(0, 5)
    f.add(3, 2)
    f.add(9, 1)
    assert f.prefix_sum(0) == 5
    assert f.prefix_sum(2) == 5
    assert f.prefix_sum(3) == 7
    assert f.prefix_sum(9) == 8
    assert f.prefix_sum(-1) == 0


def test_negative_updates():
    f = Fenwick(5)
    f.add(2, 3)
    f.add(2, -3)
    assert f.prefix_sum(4) == 0


def test_against_numpy_cumsum(rng):
    n = 200
    f = Fenwick(n)
    values = np.zeros(n, dtype=np.int64)
    for _ in range(500):
        i = int(rng.integers(0, n))
        d = int(rng.integers(-3, 4))
        f.add(i, d)
        values[i] += d
    cums = np.cumsum(values)
    for q in range(0, n, 17):
        assert f.prefix_sum(q) == cums[q]


def test_invalid_size():
    with pytest.raises(ValueError):
        Fenwick(-1)
