"""Unit tests for the compiled adjacency gather and its refusals."""

import numpy as np
import pytest

from repro.core.gather import gather_adjacency, narrow_layout, slice_lengths
from repro.graph.csr import build_csr


def _layout(graph):
    """The graph's CSR in the gather's one width, and the CSR itself."""
    csr = build_csr(graph)
    return (*narrow_layout(csr.index, csr.neighbors), csr)


def _ids(*ids):
    return np.array(ids, dtype=np.int32)


def test_empty_vertex_set(paper_graph):
    index, neighbors, _ = _layout(paper_graph)
    keys, values, gathered = gather_adjacency(index, neighbors, np.array([], dtype=np.int32))
    assert keys.size == 0
    assert values.size == 0
    assert gathered is None
    # a plain empty list (float64 once an array), with a parallel array too
    keys, values, gathered = gather_adjacency(index, neighbors, [], np.arange(neighbors.size))
    assert keys.size == values.size == gathered.size == 0


def test_single_vertex(paper_graph):
    index, neighbors, _ = _layout(paper_graph)
    keys, values, _ = gather_adjacency(index, neighbors, _ids(0))
    assert keys.tolist() == [0] * 5
    assert values.tolist() == [1, 2, 3, 4, 5]


def test_zero_degree_vertex(paper_graph):
    index, neighbors, _ = _layout(paper_graph)
    keys, values, _ = gather_adjacency(index, neighbors, _ids(1))
    assert keys.size == 0
    assert values.size == 0


def test_multiple_vertices_in_order(paper_graph):
    index, neighbors, _ = _layout(paper_graph)
    keys, values, _ = gather_adjacency(index, neighbors, _ids(5, 2))
    assert keys.tolist() == [5] * 5 + [2]
    assert values.tolist() == [0, 1, 2, 3, 4, 4]


def test_duplicates_allowed(paper_graph):
    index, neighbors, _ = _layout(paper_graph)
    keys, values, _ = gather_adjacency(index, neighbors, _ids(2, 2))
    assert keys.tolist() == [2, 2]
    assert values.tolist() == [4, 4]


def test_matches_python_loop(small_rmat):
    index, neighbors, csr = _layout(small_rmat)
    vertices = np.arange(0, small_rmat.num_vertices, 3, dtype=np.int32)
    keys, values, pos = gather_adjacency(index, neighbors, vertices, np.arange(neighbors.size))
    expected_keys, expected_vals = [], []
    for v in vertices:
        nbrs = csr.neighbors_of(int(v))
        expected_keys.extend([int(v)] * nbrs.size)
        expected_vals.extend(nbrs.tolist())
    assert keys.tolist() == expected_keys
    assert values.tolist() == expected_vals
    # a parallel array of positions comes back as the position of each value
    assert pos.tolist() == [p for v in vertices for p in range(csr.index[v], csr.index[v + 1])]


def test_all_vertices_recovers_edges(small_rmat):
    index, neighbors, _ = _layout(small_rmat)
    keys, values, _ = gather_adjacency(
        index, neighbors, np.arange(small_rmat.num_vertices, dtype=np.int32)
    )
    assert keys.size == small_rmat.num_edges
    assert sorted(zip(keys.tolist(), values.tolist())) == sorted(small_rmat.to_pairs())


def test_ids_come_back_as_intp(small_rmat):
    """The gathered phases hand operators machine-word ids; a parallel
    array keeps its dtype, and the values equal the stored int32 ids."""
    index, neighbors, csr = _layout(small_rmat)
    assert index.dtype == neighbors.dtype == np.int32
    vertices = np.arange(0, small_rmat.num_vertices, 2, dtype=np.int32)
    keys, values, pos = gather_adjacency(index, neighbors, vertices, np.arange(neighbors.size))
    assert keys.dtype == values.dtype == np.intp
    assert pos.dtype == np.arange(1).dtype
    assert np.array_equal(keys, np.repeat(vertices, np.diff(csr.index)[vertices]))
    assert np.array_equal(values, csr.neighbors[pos])
    # the lengths a caller already read give the same gather
    lengths = slice_lengths(index, vertices)
    assert np.array_equal(lengths, np.diff(csr.index)[vertices])
    again = gather_adjacency(index, neighbors, vertices, np.arange(neighbors.size), lengths=lengths)
    assert all(np.array_equal(a, b) for a, b in zip(again, (keys, values, pos)))


def test_weights_ride_in_the_gather(small_rmat):
    index, neighbors, csr = _layout(small_rmat)
    w = np.random.default_rng(4).random(neighbors.size)
    vertices = _ids(7, 3, 250, 3, 0)
    _, _, gathered = gather_adjacency(index, neighbors, vertices, w)
    expected = [p for v in vertices for p in range(csr.index[v], csr.index[v + 1])]
    assert gathered.dtype == w.dtype
    assert np.array_equal(gathered, w[expected])


def test_the_wide_layout_is_the_same_call(small_rmat):
    """A graph with |E| >= 2**31 gathers from int64 arrays; so do int64
    ids over an int64 copy of a small one."""
    index, neighbors, _ = _layout(small_rmat)
    vertices = np.arange(0, small_rmat.num_vertices, 5, dtype=np.int32)
    narrow = gather_adjacency(index, neighbors, vertices)
    index, neighbors, vertices = (a.astype(np.int64) for a in (index, neighbors, vertices))
    wide = gather_adjacency(index, neighbors, vertices)
    assert all(np.array_equal(a, b) for a, b in zip(narrow[:2], wide[:2]))


@pytest.mark.parametrize("width", [np.int32, np.int64])
@pytest.mark.parametrize("bad", [-1, -(2**31), "rows"])
def test_an_id_out_of_range_is_an_index_error(paper_graph, width, bad):
    """A negative id would count from the index's end, and the compiled
    loop checks no bounds: both ends are refused before it runs."""
    index, neighbors, _ = _layout(paper_graph)
    index, neighbors = index.astype(width), neighbors.astype(width)
    bad = paper_graph.num_vertices if bad == "rows" else bad
    vertices = np.array([0, bad, 2], dtype=width)
    with pytest.raises(IndexError):
        gather_adjacency(index, neighbors, vertices)
    with pytest.raises(IndexError):
        slice_lengths(index, vertices)
    with pytest.raises(IndexError):  # lengths handed in do not skip the check
        gather_adjacency(index, neighbors, vertices, lengths=np.zeros(3, width))


def test_mixed_widths_are_a_type_error(paper_graph):
    """The loop would cast a mismatched array with a hidden copy."""
    index, neighbors, csr = _layout(paper_graph)
    with pytest.raises(TypeError):
        gather_adjacency(index, neighbors, np.array([0, 2]))  # intp ids
    with pytest.raises(TypeError):
        gather_adjacency(csr.index, csr.neighbors, _ids(0, 2))  # int64 index
    with pytest.raises(TypeError):
        gather_adjacency(index, neighbors.astype(np.int64), _ids(0, 2))
    with pytest.raises(TypeError):  # a non-empty float list
        gather_adjacency(index, neighbors, [0.0, 2.0])
    with pytest.raises(TypeError):
        gather_adjacency(index, neighbors, _ids(0, 2), lengths=np.array([5, 1]))


@pytest.mark.parametrize(
    "parallel",
    [
        lambda m: np.arange(2 * m)[::2],  # not contiguous
        lambda m: np.arange(m + 1),  # not one per edge
        lambda m: np.arange(m - 1),
        lambda m: np.zeros((m, 1)),  # not 1-D
    ],
)
def test_a_parallel_array_is_one_contiguous_entry_per_edge(paper_graph, parallel):
    index, neighbors, _ = _layout(paper_graph)
    with pytest.raises(TypeError):
        gather_adjacency(index, neighbors, _ids(0, 2), parallel(neighbors.size))
