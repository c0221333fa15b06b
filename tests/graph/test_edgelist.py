"""Unit tests for the EdgeList container."""

import numpy as np
import pytest

from repro._types import VID_DTYPE
from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList


def test_basic_construction():
    g = EdgeList(4, [0, 1, 2], [1, 2, 3])
    assert g.num_vertices == 4
    assert g.num_edges == 3
    assert len(g) == 3


def test_arrays_coerced_to_vid_dtype():
    g = EdgeList(3, np.array([0, 1], dtype=np.int64), np.array([1, 2], dtype=np.int8))
    assert g.src.dtype == VID_DTYPE
    assert g.dst.dtype == VID_DTYPE


def test_empty_graph():
    g = EdgeList(5, [], [])
    assert g.num_edges == 0
    assert g.out_degrees().tolist() == [0] * 5
    assert g.in_degrees().tolist() == [0] * 5


def test_zero_vertex_graph():
    g = EdgeList(0, [], [])
    assert g.num_vertices == 0
    assert g.num_edges == 0


def test_mismatched_arrays_rejected():
    with pytest.raises(GraphFormatError):
        EdgeList(4, [0, 1], [1])


def test_out_of_range_ids_rejected():
    with pytest.raises(GraphFormatError):
        EdgeList(3, [0, 1], [1, 3])
    with pytest.raises(GraphFormatError):
        EdgeList(3, [-1, 1], [1, 2])


def test_negative_vertex_count_rejected():
    with pytest.raises(GraphFormatError):
        EdgeList(-1, [], [])


def test_degrees(paper_graph):
    # Figure 1: vertex 0 has out-degree 5; vertex 1 has none.
    out = paper_graph.out_degrees()
    assert out.tolist() == [5, 0, 1, 2, 1, 5]
    inc = paper_graph.in_degrees()
    assert inc.tolist() == [1, 2, 2, 2, 4, 3]
    assert out.sum() == inc.sum() == paper_graph.num_edges


def test_reversed(paper_graph):
    rev = paper_graph.reversed()
    assert rev.num_edges == paper_graph.num_edges
    assert sorted(rev.to_pairs()) == sorted((b, a) for a, b in paper_graph.to_pairs())


def test_reversed_twice_is_identity(small_rmat):
    back = small_rmat.reversed().reversed()
    assert sorted(back.to_pairs()) == sorted(small_rmat.to_pairs())


def test_symmetrized_is_symmetric(small_rmat):
    sym = small_rmat.symmetrized()
    assert sym.is_symmetric()
    # Every original edge survives.
    original = set(small_rmat.to_pairs())
    assert original <= set(sym.to_pairs())


def test_symmetrized_idempotent(small_rmat):
    once = small_rmat.symmetrized()
    twice = once.symmetrized()
    assert sorted(once.to_pairs()) == sorted(twice.to_pairs())


def test_is_symmetric_false_for_directed():
    g = EdgeList.from_pairs(3, [(0, 1), (1, 2)])
    assert not g.is_symmetric()


def test_deduplicated():
    g = EdgeList.from_pairs(3, [(0, 1), (0, 1), (1, 2), (0, 1)])
    d = g.deduplicated()
    assert sorted(d.to_pairs()) == [(0, 1), (1, 2)]


def test_deduplicated_preserves_distinct(small_rmat):
    assert small_rmat.deduplicated().num_edges == len(set(small_rmat.to_pairs()))


def test_without_self_loops():
    g = EdgeList.from_pairs(3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    assert g.has_self_loops()
    clean = g.without_self_loops()
    assert not clean.has_self_loops()
    assert sorted(clean.to_pairs()) == [(0, 1), (1, 2)]


def test_sorted_by_source():
    g = EdgeList.from_pairs(4, [(2, 1), (0, 3), (2, 0), (1, 1)])
    s = g.sorted_by("source")
    assert s.to_pairs() == [(0, 3), (1, 1), (2, 0), (2, 1)]


def test_sorted_by_destination():
    g = EdgeList.from_pairs(4, [(2, 1), (0, 3), (2, 0), (1, 1)])
    s = g.sorted_by("destination")
    assert s.to_pairs() == [(2, 0), (1, 1), (2, 1), (0, 3)]


def test_sort_key_invalid():
    g = EdgeList.from_pairs(2, [(0, 1)])
    with pytest.raises(ValueError):
        g.sorted_by("hilbert")


def test_permuted():
    g = EdgeList.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    p = g.permuted(np.array([2, 0, 1]))
    assert p.to_pairs() == [(2, 0), (0, 1), (1, 2)]


def test_permuted_wrong_size_rejected():
    g = EdgeList.from_pairs(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphFormatError):
        g.permuted(np.array([0]))


def test_relabeled():
    g = EdgeList.from_pairs(3, [(0, 1), (1, 2)])
    r = g.relabeled(np.array([2, 1, 0]))
    assert sorted(r.to_pairs()) == [(1, 0), (2, 1)]


def test_relabeled_wrong_size_rejected():
    g = EdgeList.from_pairs(3, [(0, 1)])
    with pytest.raises(GraphFormatError):
        g.relabeled(np.array([0, 1]))


def test_from_pairs_roundtrip(small_rmat):
    again = EdgeList.from_pairs(small_rmat.num_vertices, small_rmat.to_pairs())
    assert np.array_equal(again.src, small_rmat.src)
    assert np.array_equal(again.dst, small_rmat.dst)


def test_from_pairs_invalid_shape():
    with pytest.raises(GraphFormatError):
        EdgeList.from_pairs(3, [(0, 1, 2)])
