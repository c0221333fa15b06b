"""Batched stack-distance kernel: differential and edge-case tests."""

import numpy as np
import pytest

from repro.memsim.kernel import (
    COLD,
    set_distances,
    set_order,
    stack_distance_kernel,
)
from tests.references import reference_stack_distances


def test_empty_trace():
    out = stack_distance_kernel(np.array([], dtype=np.int64))
    assert out.size == 0
    assert out.dtype == np.int64


def test_single_access():
    assert stack_distance_kernel(np.array([7])).tolist() == [COLD]


def test_single_address_repeated():
    t = np.zeros(500, dtype=np.int64)
    expect = [COLD] + [0] * 499
    for path in ("chunked", "global"):
        assert stack_distance_kernel(t, path=path).tolist() == expect


def test_all_distinct():
    t = np.arange(300)
    for path in ("chunked", "global"):
        assert np.all(stack_distance_kernel(t, path=path) == COLD)


def test_known_small_trace():
    # a b c a b b c: classic textbook example.
    t = np.array([0, 1, 2, 0, 1, 1, 2])
    expect = [COLD, COLD, COLD, 2, 2, 0, 2]
    assert stack_distance_kernel(t).tolist() == expect


@pytest.mark.parametrize("path", ["chunked", "global"])
@pytest.mark.parametrize("chunk", [4, 16, 64, None])
def test_differential_random(rng, path, chunk):
    if path == "global" and chunk is not None:
        pytest.skip("chunk only affects the chunked path")
    for universe in (1, 3, 17, 500):
        t = rng.integers(0, universe, size=600)
        got = stack_distance_kernel(t, path=path, chunk=chunk)
        assert np.array_equal(got, reference_stack_distances(t))


def test_negative_and_huge_addresses(rng):
    # Exercises the stable-argsort fallback of the packed key sort.
    t = rng.integers(-(10**17), 10**17, size=400)
    t = np.concatenate([t, t, t[:100]])
    got = stack_distance_kernel(t)
    assert np.array_equal(got, reference_stack_distances(t))


def test_chunk_validation():
    t = np.arange(10)
    with pytest.raises(ValueError):
        stack_distance_kernel(t, chunk=3)  # not a power of two
    with pytest.raises(ValueError):
        stack_distance_kernel(t, chunk=2)  # below minimum
    with pytest.raises(ValueError):
        stack_distance_kernel(t, path="fenwick")


def test_set_distances_one_set_equals_plain(rng):
    t = rng.integers(0, 60, size=1000)
    assert np.array_equal(set_distances(t, 1), stack_distance_kernel(t))


def test_set_distances_validation():
    with pytest.raises(ValueError):
        set_distances(np.arange(4), 0)


def test_set_distances_matches_per_set_replay(rng):
    t = rng.integers(0, 128, size=2000)
    for num_sets in (2, 4, 16):
        d = set_distances(t, num_sets)
        sets = t % num_sets
        for s in range(num_sets):
            sub = t[sets == s]
            assert np.array_equal(
                d[sets == s], reference_stack_distances(sub)
            ), (num_sets, s)


def test_set_order_is_stable_set_sort(rng):
    t = rng.integers(0, 97, size=500)
    order = set_order(t, 8)
    sets = t % 8
    # stable: within a set, positions stay ascending.
    assert np.array_equal(order, np.argsort(sets, kind="stable"))
