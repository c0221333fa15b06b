"""``sorted_distinct`` / ``count_distinct`` are ``np.unique`` on every input,
and ``count_distinct_between`` is ``np.unique`` of every cut's slice.

They pick their path from the ids alone (span against ``SPAN_PER_ID``
times size), so the strategy puts arrays on both sides of that line.
Scattered signed ids are sorted, never handed to ``np.unique`` (a hash
set since numpy 2.3); only unsigned and float ids still reach it.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.frontier.distinct import (
    SPAN_PER_ID,
    _mark,
    count_distinct,
    count_distinct_between,
    sorted_distinct,
)

DTYPES = [np.int32, np.int64]


def _same_as_unique(ids: np.ndarray) -> None:
    """``ids`` are signed: equal to ``np.unique`` without calling it."""
    want = np.unique(ids)
    with mock.patch.object(np, "unique", _refuse):
        got, count = sorted_distinct(ids), count_distinct(ids)
    assert count == want.size
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert not np.shares_memory(got, ids)


def _refuse(*args, **kwargs):
    raise AssertionError("np.unique called for signed integer ids")


@st.composite
def id_arrays(draw):
    """Ids drawn from a window whose width, relative to the count,
    straddles ``SPAN_PER_ID``; the window may sit at either end of the
    dtype's range."""
    dtype = draw(st.sampled_from(DTYPES))
    info = np.iinfo(dtype)
    size = draw(st.integers(0, 200))
    width = draw(st.integers(1, 2 * SPAN_PER_ID * max(size, 1)))
    base = draw(
        st.one_of(
            st.just(info.min),
            st.just(info.max - width + 1),
            st.integers(-1000, 1000),
        )
    )
    offsets = draw(
        st.lists(st.integers(0, width - 1), min_size=size, max_size=size)
    )
    return np.array([base + o for o in offsets], dtype=dtype)


@given(id_arrays())
def test_matches_np_unique(ids):
    _same_as_unique(ids)


def _per_slice(ids: np.ndarray, cuts) -> list[int]:
    """The reference: ``np.unique`` of the ids inside each cut."""
    return [
        np.unique(ids[(ids >= lo) & (ids < hi)]).size for lo, hi in zip(cuts, cuts[1:])
    ]


@given(id_arrays(), st.data())
def test_counts_between_cuts_match_np_unique_per_slice(ids, data):
    """Cuts cover the ids' whole window (a run's ``[lo, hi)``), repeat
    (zero-width partitions) and sit wherever the window does — at either
    end of the dtype's range included."""
    lo = int(ids.min()) if ids.size else 0
    hi = int(ids.max()) if ids.size else 0
    hi = min(hi + 1, np.iinfo(np.int64).max)  # half-open; int64's top id stays out
    inner = data.draw(st.lists(st.integers(lo, hi), max_size=8))
    cuts = np.array(sorted([lo, hi] + inner + inner[:2]), dtype=np.int64)
    ids = ids[ids < hi]
    with mock.patch.object(np, "unique", _refuse):
        got = count_distinct_between(ids, cuts)
    assert got.tolist() == _per_slice(ids, cuts.tolist())
    assert got.sum() == count_distinct(ids)


@pytest.mark.parametrize("dtype", DTYPES)
def test_counts_between_cuts_edge_cases(dtype):
    info = np.iinfo(dtype)
    empty = np.empty(0, dtype)
    assert count_distinct_between(empty, np.array([3, 3, 9])).tolist() == [0, 0]
    assert count_distinct_between(empty, np.array([5, 5])).tolist() == [0]
    ids = np.array([4, 4, 6, 9, 9, 9], dtype)
    # zero-width cuts before, between and after the ids
    cuts = np.array([4, 4, 5, 7, 7, 7, 10, 10])
    assert count_distinct_between(ids, cuts).tolist() == [0, 1, 1, 0, 0, 1, 0]
    assert count_distinct_between(ids, np.array([4, 10])).tolist() == [3]
    # vertex-id cuts, as the engine's tasks carry them
    assert count_distinct_between(ids, np.array([4, 7, 10], np.int32)).tolist() == [2, 1]
    # cuts in the ids' own dtype, further from the ids than that dtype can subtract
    low = info.min + np.arange(300, dtype=dtype) % 97
    wide = np.array([info.min, 0, info.max], dtype)
    assert count_distinct_between(low, wide).tolist() == [97, 0]
    # both paths at both ends of the range: dense ids mark, scattered ids sort
    for ids in (
        info.min + np.arange(300, dtype=dtype) % 97,
        info.max - 1 - np.arange(300, dtype=dtype) % 97,
        info.min + np.arange(50, dtype=dtype) * 1000,
        info.max - 1 - np.arange(50, dtype=dtype) * 1000,
    ):
        lo, hi = int(ids.min()), int(ids.max()) + 1
        mid = lo + (hi - lo) // 3
        cuts = np.array([lo, mid, mid, hi], dtype=np.int64)
        assert count_distinct_between(ids, cuts).tolist() == _per_slice(ids, cuts.tolist())


@given(id_arrays(), st.integers(2, 4))
def test_non_contiguous_and_read_only_inputs(ids, step):
    strided = np.repeat(ids, step)[::step]
    assert ids.size < 2 or not strided.flags.c_contiguous
    _same_as_unique(strided)
    frozen = ids.copy()
    frozen.setflags(write=False)
    _same_as_unique(frozen)
    assert np.array_equal(frozen, ids)


@pytest.mark.parametrize("dtype", DTYPES)
def test_edge_cases_on_both_paths(dtype):
    info = np.iinfo(dtype)
    many = 500
    cases = {
        "empty": np.empty(0, dtype),
        "one id": np.array([7], dtype),
        "all equal, few": np.full(3, 5, dtype),
        "all equal, many": np.full(many, -5, dtype),
        # the span is computed in Python ints: 2**32 (2**64) does not overflow
        "dtype extremes together": np.array([info.max, info.min] * many, dtype),
        "dense at the top of the range": info.max - np.arange(many, dtype=dtype) % 97,
        "dense at the bottom of the range": info.min + np.arange(many, dtype=dtype) % 97,
        "already sorted and distinct": np.arange(many, dtype=dtype),
    }
    for ids in cases.values():
        _same_as_unique(ids)
    taken = {name for name, ids in cases.items() if _mark(ids) is not None}
    assert taken == {
        "empty",
        "one id",
        "all equal, few",
        "all equal, many",
        "dense at the top of the range",
        "dense at the bottom of the range",
        "already sorted and distinct",
    }


def test_selection_follows_span_over_size():
    dense = np.arange(100, dtype=np.int32)
    assert _mark(dense * SPAN_PER_ID) is not None  # span 397 <= 4 * 100
    assert _mark(dense * (SPAN_PER_ID + 1)) is None  # span 496 > 4 * 100
    assert _mark(dense.astype(np.uint32)) is None  # unsigned ids keep np.unique


@pytest.mark.parametrize("dtype", DTYPES)
def test_scattered_signed_ids_are_sorted_not_hashed(dtype):
    """The branch every road-network frontier takes: too scattered for the
    scratch, so ``np.sort`` and an adjacent-difference mask — from either
    end of the dtype's range, through strides and read-only buffers."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(11)
    picks = rng.integers(0, 250_000, 1_000).astype(dtype)
    strided = np.repeat(picks, 3)[::3]
    frozen = picks.copy()
    frozen.setflags(write=False)
    for ids in (
        picks,
        info.min + picks,
        info.max - picks,
        np.concatenate([info.min + picks, info.max - picks]),
        strided,
        frozen,
    ):
        assert _mark(ids) is None
        _same_as_unique(ids)
    assert not strided.flags.c_contiguous
    assert np.array_equal(frozen, picks)


@pytest.mark.parametrize("dtype", DTYPES)
def test_ascending_scattered_ids_are_copied_not_sorted(dtype):
    """An operator's claimed ids (``BFSOp``'s ``np.unique``) already ascend:
    they skip the sort; one step down, or one repeat, and they do not."""
    info = np.iinfo(dtype)
    rising = np.unique(np.random.default_rng(12).integers(0, 250_000, 1_000)).astype(dtype)
    for ids in (rising, info.min + rising, info.max - rising[::-1], rising[::2]):
        assert _mark(ids) is None
        with mock.patch.object(np, "sort", side_effect=AssertionError("ascending ids sorted")):
            _same_as_unique(ids)
    for ids in (rising[::-1], np.insert(rising, 7, rising[7]), np.insert(rising, 7, rising[3])):
        assert _mark(ids) is None
        _same_as_unique(ids)


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64, np.float64])
def test_other_dtypes_still_fall_through_to_np_unique(dtype, monkeypatch):
    ids = np.array([7, 3, 7, 2**31, 3, 0], dtype=dtype)
    if dtype is np.float64:
        ids[1] = ids[4] = np.nan  # np.unique's own NaN handling applies
    real_unique, calls = np.unique, []

    def counting(*args, **kwargs):
        calls.append(args[0].dtype)
        return real_unique(*args, **kwargs)

    want = np.unique(ids)
    monkeypatch.setattr(np, "unique", counting)
    got = sorted_distinct(ids)
    assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
    assert count_distinct(ids) == want.size
    assert calls == [np.dtype(dtype)] * 2
