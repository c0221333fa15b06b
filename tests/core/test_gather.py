"""Unit tests for the ragged adjacency gather primitive."""

import numpy as np

from repro.core.gather import gather_adjacency
from repro.graph.csr import build_csr


def test_empty_vertex_set(paper_graph):
    csr = build_csr(paper_graph)
    keys, values, _ = gather_adjacency(csr.index, csr.neighbors, np.array([], dtype=np.int32))
    assert keys.size == 0
    assert values.size == 0
    # a plain empty list (float64 once an array)
    keys, values, pos = gather_adjacency(csr.index, csr.neighbors, [])
    assert keys.size == values.size == pos.size == 0


def test_single_vertex(paper_graph):
    csr = build_csr(paper_graph)
    keys, values, _ = gather_adjacency(csr.index, csr.neighbors, np.array([0]))
    assert keys.tolist() == [0] * 5
    assert values.tolist() == [1, 2, 3, 4, 5]


def test_zero_degree_vertex(paper_graph):
    csr = build_csr(paper_graph)
    keys, values, _ = gather_adjacency(csr.index, csr.neighbors, np.array([1]))
    assert keys.size == 0
    assert values.size == 0


def test_multiple_vertices_in_order(paper_graph):
    csr = build_csr(paper_graph)
    keys, values, _ = gather_adjacency(csr.index, csr.neighbors, np.array([5, 2]))
    assert keys.tolist() == [5] * 5 + [2]
    assert values.tolist() == [0, 1, 2, 3, 4, 4]


def test_duplicates_allowed(paper_graph):
    csr = build_csr(paper_graph)
    keys, values, _ = gather_adjacency(csr.index, csr.neighbors, np.array([2, 2]))
    assert keys.tolist() == [2, 2]
    assert values.tolist() == [4, 4]


def test_matches_python_loop(small_rmat):
    csr = build_csr(small_rmat)
    vertices = np.arange(0, small_rmat.num_vertices, 3)
    keys, values, pos = gather_adjacency(csr.index, csr.neighbors, vertices)
    expected_keys, expected_vals = [], []
    for v in vertices:
        nbrs = csr.neighbors_of(int(v))
        expected_keys.extend([int(v)] * nbrs.size)
        expected_vals.extend(nbrs.tolist())
    assert keys.tolist() == expected_keys
    assert values.tolist() == expected_vals
    # positions index neighbors (and any array parallel to it) at each value
    assert pos.tolist() == [p for v in vertices for p in range(csr.index[v], csr.index[v + 1])]


def test_all_vertices_recovers_edges(small_rmat):
    csr = build_csr(small_rmat)
    keys, values, _ = gather_adjacency(
        csr.index, csr.neighbors, np.arange(small_rmat.num_vertices)
    )
    assert keys.size == small_rmat.num_edges
    assert sorted(zip(keys.tolist(), values.tolist())) == sorted(small_rmat.to_pairs())
