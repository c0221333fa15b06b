"""Memory-trace generation tests."""

import numpy as np
import pytest

from repro.layout.coo import PartitionedCOO
from repro.layout.pcsr import PartitionedCSR
from repro.memsim.trace import (
    interleave_traces,
    next_array_trace,
    partition_edge_traces,
    vertex_lines,
)
from repro.partition.by_destination import partition_by_destination


def test_vertex_lines_granularity():
    ids = np.array([0, 7, 8, 15, 16])
    # 8 bytes per value, 64-byte lines -> 8 values per line.
    assert vertex_lines(ids).tolist() == [0, 0, 1, 1, 2]


def test_vertex_lines_custom_sizes():
    ids = np.array([0, 1, 2, 3])
    assert vertex_lines(ids, bytes_per_value=32, line_bytes=64).tolist() == [0, 0, 1, 1]


@pytest.fixture
def coo(small_rmat):
    vp = partition_by_destination(small_rmat, 4)
    return PartitionedCOO.build(small_rmat, vp)


def test_next_array_trace_length(coo, small_rmat):
    t = next_array_trace(coo)
    assert t.size == small_rmat.num_edges


def test_next_array_trace_is_dst_stream(coo):
    t = next_array_trace(coo)
    assert np.array_equal(t, vertex_lines(coo.dst))


def test_next_array_trace_with_active_mask(coo, small_rmat):
    active = np.zeros(small_rmat.num_vertices, dtype=bool)
    active[small_rmat.src[0]] = True
    t = next_array_trace(coo, active=active)
    assert 0 < t.size < small_rmat.num_edges


def test_interleave():
    a = np.array([1, 2, 3])
    b = np.array([4, 5, 6])
    out = interleave_traces(a, b, b_offset=100)
    assert out.tolist() == [1, 104, 2, 105, 3, 106]


def test_interleave_shape_mismatch():
    with pytest.raises(ValueError):
        interleave_traces(np.array([1]), np.array([1, 2]), b_offset=0)


def test_partition_edge_traces_coo(coo, small_rmat):
    traces = partition_edge_traces(coo)
    assert len(traces) == coo.num_partitions
    assert sum(t.size for t in traces) == 2 * small_rmat.num_edges
    # Source reads and (offset) destination writes must not alias.
    src_lines = {int(x) for t in traces for x in t[0::2]}
    dst_lines = {int(x) for t in traces for x in t[1::2]}
    assert not (src_lines & dst_lines)


def test_partition_edge_traces_pcsr(small_rmat):
    vp = partition_by_destination(small_rmat, 4)
    pcsr = PartitionedCSR.build(small_rmat, vp)
    traces = partition_edge_traces(pcsr)
    assert sum(t.size for t in traces) == 2 * small_rmat.num_edges


def test_partition_edge_traces_active_filter(coo, small_rmat):
    active = np.zeros(small_rmat.num_vertices, dtype=bool)
    traces = partition_edge_traces(coo, active=active)
    assert all(t.size == 0 for t in traces)


def test_partitioned_trace_shortens_reuse(small_rmat):
    """End-to-end Figure 2 mechanism: more partitions, shorter distances."""
    from repro.memsim.reuse import reuse_histogram

    vp1 = partition_by_destination(small_rmat, 1)
    vp8 = partition_by_destination(small_rmat, 8)
    t1 = next_array_trace(PartitionedCOO.build(small_rmat, vp1))
    t8 = next_array_trace(PartitionedCOO.build(small_rmat, vp8))
    h1, h8 = reuse_histogram(t1), reuse_histogram(t8)
    assert h8.max_distance() <= h1.max_distance()
    assert h8.percentile(99) <= h1.percentile(99)


def test_max_accesses_matches_full_slice(coo, small_rmat):
    full = next_array_trace(coo)
    for m in (0, 1, 37, full.size, full.size + 100):
        assert np.array_equal(next_array_trace(coo, max_accesses=m), full[:m])
    with pytest.raises(ValueError):
        next_array_trace(coo, max_accesses=-1)


def test_max_accesses_with_active_mask(coo, small_rmat):
    rng = np.random.default_rng(11)
    active = rng.random(small_rmat.num_vertices) < 0.4
    full = next_array_trace(coo, active=active)
    got = next_array_trace(coo, active=active, max_accesses=50)
    assert np.array_equal(got, full[:50])


def test_chunked_generation_concatenates_to_full(coo, small_rmat):
    from repro.memsim.trace import iter_next_array_chunks

    full = next_array_trace(coo)
    for chunk_edges in (1, 13, 10**6):
        chunks = list(iter_next_array_chunks(coo, chunk_edges=chunk_edges))
        assert np.array_equal(np.concatenate(chunks), full)
        assert all(c.size <= chunk_edges for c in chunks)
    rng = np.random.default_rng(5)
    active = rng.random(small_rmat.num_vertices) < 0.5
    masked = next_array_trace(coo, active=active)
    chunks = list(iter_next_array_chunks(coo, active=active, chunk_edges=29))
    assert np.array_equal(np.concatenate(chunks), masked)
    with pytest.raises(ValueError):
        next(iter_next_array_chunks(coo, chunk_edges=0))
