"""Property-based tests on the Hilbert curve."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.hilbert import hilbert_index
from tests.references import hilbert_point


@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=50),
)
def test_roundtrip_from_distance(bits, raw):
    top = 1 << (2 * bits)
    d = np.array([r % top for r in raw], dtype=np.uint64)
    x, y = hilbert_point(bits, d)
    assert np.all(x < (1 << bits))
    assert np.all(y < (1 << bits))
    assert np.array_equal(hilbert_index(bits, x, y), d)


@given(
    st.integers(min_value=1, max_value=10),
    st.lists(st.integers(min_value=0, max_value=2**30), min_size=1, max_size=50),
    st.lists(st.integers(min_value=0, max_value=2**30), min_size=1, max_size=50),
)
def test_roundtrip_from_coordinates(bits, xs, ys):
    k = min(len(xs), len(ys))
    side = 1 << bits
    x = np.array([v % side for v in xs[:k]], dtype=np.uint64)
    y = np.array([v % side for v in ys[:k]], dtype=np.uint64)
    d = hilbert_index(bits, x, y)
    assert np.all(d < (1 << (2 * bits)))
    x2, y2 = hilbert_point(bits, d)
    assert np.array_equal(x, x2)
    assert np.array_equal(y, y2)


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=6))
def test_curve_is_continuous(bits):
    """Consecutive curve positions always differ by one unit step."""
    d = np.arange(1 << (2 * bits), dtype=np.uint64)
    x, y = hilbert_point(bits, d)
    step = np.abs(np.diff(x.astype(np.int64))) + np.abs(np.diff(y.astype(np.int64)))
    assert np.all(step == 1)
