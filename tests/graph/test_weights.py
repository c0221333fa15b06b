"""Unit tests for deterministic synthetic edge weights."""

import numpy as np

from repro.graph.weights import WeightFn, _splitmix64, edge_weights


def test_weights_in_range():
    src = np.arange(1000, dtype=np.int32)
    dst = (src * 7 + 3) % 1000
    w = edge_weights(src, dst, low=2.0, high=5.0)
    assert np.all(w >= 2.0)
    assert np.all(w < 5.0)


def test_weights_deterministic_in_endpoints():
    src = np.array([1, 2, 3], dtype=np.int32)
    dst = np.array([4, 5, 6], dtype=np.int32)
    assert np.array_equal(edge_weights(src, dst), edge_weights(src, dst))


def test_weights_order_independent():
    src = np.array([1, 2, 3], dtype=np.int32)
    dst = np.array([4, 5, 6], dtype=np.int32)
    perm = np.array([2, 0, 1])
    w = edge_weights(src, dst)
    wp = edge_weights(src[perm], dst[perm])
    assert np.allclose(w[perm], wp)


def test_weights_direction_sensitive():
    a = edge_weights(np.array([1]), np.array([2]))
    b = edge_weights(np.array([2]), np.array([1]))
    assert a[0] != b[0]


def test_weights_seed_sensitivity():
    src = np.arange(100, dtype=np.int32)
    dst = src[::-1].copy()
    assert not np.allclose(
        edge_weights(src, dst, seed=0), edge_weights(src, dst, seed=1)
    )


def test_weights_roughly_uniform():
    src = np.arange(20000, dtype=np.int64)
    dst = (src * 31 + 17) % 20000
    w = edge_weights(src, dst, low=0.0, high=1.0)
    assert abs(w.mean() - 0.5) < 0.02
    assert abs(np.quantile(w, 0.25) - 0.25) < 0.02


def test_weightfn_callable():
    fn = WeightFn(low=1.0, high=3.0, seed=7)
    src = np.array([0, 1], dtype=np.int32)
    dst = np.array([1, 0], dtype=np.int32)
    w = fn(src, dst)
    assert w.shape == (2,)
    assert np.all((w >= 1.0) & (w < 3.0))
    assert np.array_equal(w, fn(src, dst))


def _splitmix64_written_out(x: np.ndarray) -> np.ndarray:
    """The finaliser as first shipped: a copy, then masked out-of-place steps."""
    mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & mask
        x ^= x >> np.uint64(30)
        x = (x * np.uint64(0xBF58476D1CE4E5B9)) & mask
        x ^= x >> np.uint64(27)
        x = (x * np.uint64(0x94D049BB133111EB)) & mask
        x ^= x >> np.uint64(31)
    return x


def test_in_place_mixer_is_bit_identical_to_the_masked_formula():
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**64, size=2_000_000, dtype=np.uint64)
    keys[:4] = [0, 1, 2**63, 2**64 - 1]
    assert np.array_equal(_splitmix64(keys.copy()), _splitmix64_written_out(keys))
    # ... and through the public function, whose key is its own temporary
    src = rng.integers(0, 2**31 - 1, size=10_000).astype(np.int32)
    dst = rng.integers(0, 2**31 - 1, size=10_000).astype(np.int32)
    before = src.copy(), dst.copy()
    for seed in (0, 7, 2**40):
        seed_mix = np.uint64((seed * 0xD6E8FEB86659FD93) % 2**64)
        key = (src.astype(np.uint64) << np.uint64(32)) ^ dst.astype(np.uint64) ^ seed_mix
        want = 1.0 + _splitmix64_written_out(key).astype(np.float64) / float(2**64)
        assert np.array_equal(edge_weights(src, dst, seed=seed), want)
    assert np.array_equal(src, before[0]) and np.array_equal(dst, before[1])
