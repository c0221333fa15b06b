"""Streaming partitioner (LDG / FENNEL) tests."""

import numpy as np
import pytest

from benchmarks.streaming_partitioners import (
    StreamingAssignment,
    assignment_from_ranges,
    edge_cut_fraction,
    fennel_partition,
    ldg_partition,
)
from repro.errors import PartitionError
from repro.graph import generators as gen
from repro.partition.by_destination import partition_by_destination


@pytest.mark.parametrize("partitioner", [ldg_partition, fennel_partition])
def test_produces_valid_assignment(small_rmat, partitioner):
    a = partitioner(small_rmat, 6)
    assert a.num_partitions == 6
    assert a.num_vertices == small_rmat.num_vertices
    assert a.sizes().sum() == small_rmat.num_vertices


@pytest.mark.parametrize("partitioner", [ldg_partition, fennel_partition])
def test_reasonable_balance(small_rmat, partitioner):
    a = partitioner(small_rmat, 6)
    assert a.balance() < 1.6


@pytest.mark.parametrize("partitioner", [ldg_partition, fennel_partition])
def test_deterministic(small_rmat, partitioner):
    assert np.array_equal(
        partitioner(small_rmat, 4).assignment, partitioner(small_rmat, 4).assignment
    )


def test_ldg_beats_hash_on_clustered_graph(road):
    """On a road lattice, neighbourhood-aware placement must cut far fewer
    edges than a hash (modular) assignment."""
    a = ldg_partition(road, 8)
    hashed = StreamingAssignment(
        8, (np.arange(road.num_vertices) % 8).astype(np.int32)
    )
    assert edge_cut_fraction(road, a) < edge_cut_fraction(road, hashed) / 2


def test_ldg_cut_vs_algorithm1(road):
    """On a spatially ordered road graph, Algorithm 1's contiguous ranges
    are already near-optimal; LDG should be in the same league."""
    ranges = assignment_from_ranges(partition_by_destination(road, 8))
    ldg = ldg_partition(road, 8)
    assert edge_cut_fraction(road, ldg) < 3 * edge_cut_fraction(road, ranges) + 0.05


def test_edge_cut_bounds(small_rmat):
    a = ldg_partition(small_rmat, 4)
    cut = edge_cut_fraction(small_rmat, a)
    assert 0.0 <= cut <= 1.0
    one = StreamingAssignment(1, np.zeros(small_rmat.num_vertices, dtype=np.int32))
    assert edge_cut_fraction(small_rmat, one) == 0.0


def test_assignment_from_ranges_roundtrip(small_rmat):
    vp = partition_by_destination(small_rmat, 5)
    a = assignment_from_ranges(vp)
    assert a.num_partitions == 5
    assert np.array_equal(a.sizes(), vp.sizes())


def test_invalid_inputs(small_rmat):
    with pytest.raises(PartitionError):
        ldg_partition(small_rmat, 0)
    with pytest.raises(PartitionError):
        StreamingAssignment(2, np.array([0, 3], dtype=np.int32))


def test_custom_stream_order(small_rmat):
    rng = np.random.default_rng(1)
    order = rng.permutation(small_rmat.num_vertices)
    a = ldg_partition(small_rmat, 4, order=order)
    assert a.sizes().sum() == small_rmat.num_vertices


def test_empty_graph():
    from repro.graph.edgelist import EdgeList

    g = EdgeList(0, [], [])
    a = ldg_partition(g, 2)
    assert a.num_vertices == 0


def _reference_greedy_stream(edges, num_partitions, score_fn, *, order=None):
    """The pre-vectorisation per-vertex greedy loop, kept as the oracle."""
    from repro._types import VID_DTYPE
    from repro.graph.csr import build_csr

    n = edges.num_vertices
    csr = build_csr(edges.symmetrized()) if n else None
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_partitions, dtype=np.float64)
    stream = order if order is not None else np.arange(n)
    for v in stream:
        v = int(v)
        nbrs = csr.neighbors_of(v)
        placed = assignment[nbrs]
        placed = placed[placed >= 0]
        counts = np.bincount(placed, minlength=num_partitions).astype(np.float64)
        scores = score_fn(counts, sizes)
        best = np.flatnonzero(scores == scores.max())
        target = int(best[np.argmin(sizes[best])])
        assignment[v] = target
        sizes[target] += 1.0
    return assignment.astype(VID_DTYPE)


@pytest.mark.parametrize("chunk", [16, 1024])
@pytest.mark.parametrize("use_order", [False, True])
def test_chunked_greedy_bit_identical_to_reference(small_rmat, chunk, use_order):
    """The chunked numpy stream makes exactly the per-vertex decisions."""
    from benchmarks import streaming_partitioners as streaming_mod

    n = small_rmat.num_vertices
    rng = np.random.default_rng(7)
    order = rng.permutation(n) if use_order else None
    k = 5
    capacity = max(1.1 * n / k, 1.0)

    def ldg_score(counts, sizes):
        return counts * np.maximum(1.0 - sizes / capacity, 0.0)

    ref = _reference_greedy_stream(small_rmat, k, ldg_score, order=order)
    old_chunk = streaming_mod._STREAM_CHUNK
    try:
        streaming_mod._STREAM_CHUNK = chunk
        got = ldg_partition(small_rmat, k, order=order).assignment
    finally:
        streaming_mod._STREAM_CHUNK = old_chunk
    assert np.array_equal(got, ref)


def test_fennel_bit_identical_to_reference(small_rmat):
    k = 4
    n = max(small_rmat.num_vertices, 1)
    m = max(small_rmat.num_edges, 1)
    alpha = m * k**0.5 / n**1.5

    def fennel_score(counts, sizes):
        return counts - alpha * 1.5 * np.power(sizes, 0.5)

    ref = _reference_greedy_stream(small_rmat, k, fennel_score)
    got = fennel_partition(small_rmat, k).assignment
    assert np.array_equal(got, ref)
