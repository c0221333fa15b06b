"""Unit tests for the dual-representation Frontier."""

import numpy as np
import pytest

from repro.frontier.distinct import _mark
from repro.frontier.frontier import Frontier


def test_empty():
    f = Frontier.empty(10)
    assert f.is_empty
    assert f.size == 0
    assert len(f) == 0
    assert f.density() == 0.0


def test_full():
    f = Frontier.full(10)
    assert f.size == 10
    assert f.density() == 1.0
    assert not f.is_empty


def test_of():
    f = Frontier.of(10, 3, 7)
    assert f.size == 2
    assert f.as_sparse().tolist() == [3, 7]


def test_from_bitmap():
    bm = np.zeros(6, dtype=bool)
    bm[[1, 4]] = True
    f = Frontier.from_bitmap(bm)
    assert f.num_vertices == 6
    assert f.as_sparse().tolist() == [1, 4]


def test_sparse_to_bitmap_conversion():
    f = Frontier(8, sparse=np.array([2, 5]))
    assert not f.has_bitmap
    bm = f.as_bitmap()
    assert f.has_bitmap
    assert bm.tolist() == [False, False, True, False, False, True, False, False]


def test_bitmap_to_sparse_conversion():
    bm = np.zeros(5, dtype=bool)
    bm[0] = True
    f = Frontier(5, bitmap=bm)
    assert not f.has_sparse
    assert f.as_sparse().tolist() == [0]
    assert f.has_sparse


def test_conversion_roundtrip():
    f = Frontier(20, sparse=np.array([1, 3, 19]))
    g = Frontier(20, bitmap=f.as_bitmap())
    assert f == g


def test_duplicates_in_sparse_collapsed():
    f = Frontier(5, sparse=np.array([2, 2, 3, 3, 3]))
    assert f.size == 2
    assert f.as_sparse().tolist() == [2, 3]


def test_unsorted_sparse_sorted():
    f = Frontier(5, sparse=np.array([4, 0, 2]))
    assert f.as_sparse().tolist() == [0, 2, 4]


def test_contains():
    f = Frontier.of(6, 1, 5)
    assert f.contains(np.array([0, 1, 5])).tolist() == [False, True, True]


@pytest.mark.parametrize("bad", [-1, -5, 5])
def test_contains_refuses_ids_out_of_range(bad):
    """``-1`` would answer with vertex n - 1's membership."""
    f = Frontier.of(5, 4)
    with pytest.raises(IndexError):
        f.contains([bad])
    with pytest.raises(IndexError):
        f.contains(np.array([0, bad], np.int32))


def test_active_edge_metric():
    out_deg = np.array([3, 0, 2, 1])
    f = Frontier.of(4, 0, 2)
    # |F| + sum degout = 2 + 5
    assert f.active_edge_metric(out_deg) == 7
    assert Frontier.empty(4).active_edge_metric(out_deg) == 0
    assert Frontier.full(4).active_edge_metric(out_deg) == 4 + 6


def test_requires_exactly_one_representation():
    with pytest.raises(ValueError):
        Frontier(4)
    with pytest.raises(ValueError):
        Frontier(4, sparse=np.array([0]), bitmap=np.zeros(4, dtype=bool))


def test_out_of_range_sparse_rejected():
    with pytest.raises(ValueError):
        Frontier(3, sparse=np.array([5]))


@pytest.mark.parametrize("bad", [-1, 20_000])
def test_out_of_range_rejected_among_many_dense_ids(bad):
    """20 k ids dense in their span take the scratch path of
    ``sorted_distinct``; one id just outside ``[0, n)`` must still be
    refused, and a negative one must not wrap into the frontier."""
    n = 20_000
    ids = np.arange(n, dtype=np.int32)
    ids[n // 2] = bad
    assert _mark(ids) is not None, "the scratch path is the one under test"
    with pytest.raises(ValueError, match="frontier vertex ids out of range"):
        Frontier(n, sparse=ids)


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.array([2**32 + 3]), "out of range"),  # narrowed first, it is vertex 3
        (np.array([3, 2**31 + 5], dtype=np.intp), "out of range"),  # ... or -2**31 + 5
        (np.array([3.7]), "must be integers"),  # truncated, it is vertex 3
        ([True], "must be integers"),
    ],
)
def test_ids_are_checked_before_they_are_narrowed(bad, match):
    """Operators may hand back ``intp`` ids: the range check reads them in
    their own dtype, so no id becomes another vertex on the way to int32."""
    with pytest.raises(ValueError, match=match):
        Frontier(10, sparse=bad)


def test_wide_ids_are_stored_as_vertex_ids():
    f = Frontier(10, sparse=np.array([7, 3, 7], dtype=np.intp))
    assert f.as_sparse().dtype == np.int32
    assert f.as_sparse().tolist() == [3, 7]
    assert Frontier(10, sparse=[]).is_empty  # an empty list is float64, and accepted


def test_wrong_bitmap_shape_rejected():
    with pytest.raises(ValueError):
        Frontier(4, bitmap=np.zeros(3, dtype=bool))


def test_equality():
    assert Frontier.of(5, 1, 2) == Frontier.of(5, 2, 1)
    assert Frontier.of(5, 1) != Frontier.of(5, 2)
    assert Frontier.of(5, 1) != Frontier.of(6, 1)


def test_unhashable():
    with pytest.raises(TypeError):
        hash(Frontier.empty(3))


def test_repr():
    assert "2/5" in repr(Frontier.of(5, 0, 1))


def test_active_edge_metric_does_not_materialise_the_other_representation():
    # The density decision runs every phase: summing degrees must use
    # whichever representation the frontier already has, not build the
    # bitmap (or the sparse ids) just to index with it.
    out_deg = np.array([3, 1, 2, 4], dtype=np.int64)
    f = Frontier(4, sparse=np.array([0, 2], dtype=np.uint32))
    assert f.active_edge_metric(out_deg) == 2 + 5
    assert not f.has_bitmap
    g = Frontier(4, bitmap=np.array([True, False, True, False]))
    assert g.active_edge_metric(out_deg) == 2 + 5
    assert not g.has_sparse


def test_arrays_are_read_only_and_a_writable_source_bitmap_is_copied():
    mask = np.array([True, False, True, True])
    f = Frontier(4, bitmap=mask)
    mask[:] = False  # the caller's array, after the fact
    assert f.size == 3 and f.as_bitmap().tolist() == [True, False, True, True]
    assert f.as_sparse().tolist() == [0, 2, 3]
    g = Frontier(4, sparse=np.array([3, 1]))
    for array in (f.as_bitmap(), f.as_sparse(), g.as_sparse(), g.as_bitmap()):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # a read-only view does not protect its writable base: copied as well
    base = np.ones(4, dtype=bool)
    view = base.view()
    view.flags.writeable = False
    h = Frontier(4, bitmap=view)
    base[0] = False
    assert h.size == 4 and h.as_bitmap().all()
