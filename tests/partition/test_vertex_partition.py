"""Unit tests for contiguous vertex partitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.partition.vertex_partition import VertexPartition
from tests.references import reference_from_weights


def test_single():
    vp = VertexPartition.single(10)
    assert vp.num_partitions == 1
    assert vp.vertex_range(0) == (0, 10)
    assert vp.sizes().tolist() == [10]


def test_equal_vertices():
    vp = VertexPartition.equal_vertices(10, 3)
    assert vp.num_partitions == 3
    assert vp.sizes().sum() == 10
    assert max(vp.sizes()) - min(vp.sizes()) <= 1


def test_equal_vertices_more_partitions_than_vertices():
    vp = VertexPartition.equal_vertices(2, 4)
    assert vp.num_partitions == 4
    assert vp.sizes().sum() == 2


def test_partition_of_vectorised():
    vp = VertexPartition(10, np.array([0, 3, 7, 10]))
    got = vp.partition_of(np.arange(10))
    assert got.tolist() == [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]


def test_partition_of_boundaries():
    vp = VertexPartition(6, np.array([0, 3, 6]))
    assert vp.partition_of(np.array([0]))[0] == 0
    assert vp.partition_of(np.array([2]))[0] == 0
    assert vp.partition_of(np.array([3]))[0] == 1
    assert vp.partition_of(np.array([5]))[0] == 1


def test_from_weights_algorithm1_semantics():
    # Algorithm 1 cuts when the running partition weight reaches |E|/P.
    weights = np.array([3, 1, 1, 1, 1, 1])  # total 8, P=2, avg 4
    vp = VertexPartition.from_weights(weights, 2)
    # Partition 0 accumulates 3+1 = 4 >= 4 then cuts.
    assert vp.boundaries.tolist() == [0, 2, 6]


def test_from_weights_heavy_head():
    weights = np.array([100, 1, 1, 1])
    vp = VertexPartition.from_weights(weights, 2)
    # First vertex alone exceeds the average: cut right after it.
    assert vp.boundaries.tolist() == [0, 1, 4]


def test_from_weights_zero_weights():
    vp = VertexPartition.from_weights(np.zeros(5, dtype=np.int64), 2)
    assert vp.num_partitions == 2
    assert vp.sizes().sum() == 5


def test_from_weights_single_partition():
    vp = VertexPartition.from_weights(np.array([1, 2, 3]), 1)
    assert vp.boundaries.tolist() == [0, 3]


def test_from_weights_exhausted_vertices():
    # More partitions than positive-weight vertices: later cuts clamp.
    weights = np.array([10, 10])
    vp = VertexPartition.from_weights(weights, 4)
    assert vp.num_partitions == 4
    assert vp.sizes().sum() == 2


def test_invalid_boundaries_rejected():
    with pytest.raises(PartitionError):
        VertexPartition(5, np.array([0, 3]))  # does not end at |V|
    with pytest.raises(PartitionError):
        VertexPartition(5, np.array([1, 5]))  # does not start at 0
    with pytest.raises(PartitionError):
        VertexPartition(5, np.array([0, 4, 2, 5]))  # not monotone
    with pytest.raises(PartitionError):
        VertexPartition(5, np.array([0]))  # too short


def test_invalid_partition_count():
    with pytest.raises(PartitionError):
        VertexPartition.equal_vertices(5, 0)
    with pytest.raises(PartitionError):
        VertexPartition.from_weights(np.array([1]), 0)


WEIGHT_KINDS = ("random", "skewed", "zero", "single_heavy", "exact", "huge")


@st.composite
def weights_and_counts(draw):
    """Algorithm 1 inputs: a weight vector of one of :data:`WEIGHT_KINDS` and
    ``P`` from {1, 2, 7, |V|}.  ``exact`` weights are equal and |V| a multiple
    of ``P``, so every cut target is a prefix value; ``huge`` ones put small
    steps on a prefix past 2**53, where the ``float64`` cast rounds."""
    kind = draw(st.sampled_from(WEIGHT_KINDS))
    p = draw(st.sampled_from([1, 2, 7, None]))  # None: P = |V|
    if kind == "exact":
        n = draw(st.integers(1, 12)) * (p or 1)
        return np.full(n, draw(st.integers(1, 9)), dtype=np.int64), p or n
    n = draw(st.integers(1, 60))
    ints = {
        "random": st.integers(0, 20),
        "skewed": st.sampled_from([0, 1, 1, 2, 3, 1000, 10**6]),
        "zero": st.just(0),
        "single_heavy": st.integers(0, 1),
        "huge": st.sampled_from([0, 1, 2, 3, 2**53 + 1, 2**54 + 3]),
    }[kind]
    weights = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
    if kind == "single_heavy":
        weights[draw(st.integers(0, n - 1))] = 10**9
    return weights, p or n


@settings(max_examples=300, deadline=None)
@given(weights_and_counts())
def test_from_weights_equals_the_per_cut_int64_search(case):
    """One ``float64`` cast of the prefix cuts where one search per cut on
    the ``int64`` prefix did, boundary for boundary."""
    weights, p = case
    got = VertexPartition.from_weights(weights, p).boundaries
    want = reference_from_weights(weights, p)
    assert np.array_equal(got, want), (weights.tolist(), p)


def test_from_weights_cuts_at_a_prefix_that_hits_its_target_exactly():
    # avg 4: the prefix reaches 4 at vertex 1 and 8 at vertex 3
    weights = np.array([2, 2, 2, 2, 2, 2, 2, 2])
    vp = VertexPartition.from_weights(weights, 4)
    assert vp.boundaries.tolist() == reference_from_weights(weights, 4).tolist()
    assert vp.boundaries.tolist() == [0, 2, 4, 6, 8]
