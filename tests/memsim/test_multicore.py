"""Shared-LLC multicore simulation tests."""

import numpy as np
import pytest

from repro.memsim.cache import CacheConfig, simulate_cache
from repro.memsim.multicore import interleave_round_robin, simulate_shared_cache
from tests.references import reference_simulate_shared_cache


def cfg(lines, ways=None):
    ways = ways or lines
    return CacheConfig(capacity_bytes=64 * lines, line_bytes=64, associativity=ways)


def test_empty():
    r = simulate_shared_cache([], cfg(8))
    assert r.accesses == 0
    assert r.miss_ratio == 0.0


def test_single_stream_matches_private_cache(rng):
    t = rng.integers(0, 40, size=2000)
    shared = simulate_shared_cache([t], cfg(16))
    private = simulate_cache(t, cfg(16))
    assert shared.misses == private.misses
    assert shared.accesses == private.accesses


def test_streams_tagged_apart():
    # Two identical streams must not share lines (distinct partitions).
    t = np.tile(np.arange(4), 50)
    r = simulate_shared_cache([t, t], cfg(16))
    # Each stream needs its own 4 lines: 8 cold misses total.
    assert r.misses == 8


def test_contention_increases_misses(rng):
    """Streams that fit alone but not together thrash the shared cache."""
    a = np.tile(np.arange(0, 12), 40)
    b = np.tile(np.arange(100, 112), 40)
    alone = simulate_cache(a, cfg(16)).misses
    together = simulate_shared_cache([a, b], cfg(16), block=4)
    assert together.misses_per_stream[0] > alone


def test_no_contention_when_both_fit(rng):
    a = np.tile(np.arange(0, 4), 40)
    b = np.tile(np.arange(100, 104), 40)
    r = simulate_shared_cache([a, b], cfg(32), block=4)
    assert r.misses == 8  # cold only


def test_uneven_stream_lengths():
    a = np.arange(10)
    b = np.arange(100, 400)
    r = simulate_shared_cache([a, b], cfg(8), block=16)
    assert r.accesses_per_stream == (10, 300)
    assert r.accesses == 310


def test_partitioning_reduces_shared_cache_contention(small_rmat):
    """End-to-end: co-running destination partitions interfere less when
    there are more, smaller partitions — the concurrent-execution side of
    the paper's locality argument."""
    from repro.layout.coo import PartitionedCOO
    from repro.memsim.trace import vertex_lines
    from repro.partition.by_destination import partition_by_destination

    def misses_with(p, cores=4):
        vp = partition_by_destination(small_rmat, p)
        coo = PartitionedCOO.build(small_rmat, vp)
        streams = [
            vertex_lines(coo.partition_edges(i)[1]) for i in range(min(cores, p))
        ]
        return simulate_shared_cache(streams, cfg(32), block=8).miss_ratio

    assert misses_with(16) < misses_with(4)


def test_matches_reference_scheduler_walk(rng):
    for trial in range(5):
        streams = [
            rng.integers(0, 60, size=int(rng.integers(0, 300))) for _ in range(4)
        ]
        for block in (1, 5, 64):
            r = simulate_shared_cache(streams, cfg(16, 4), block=block)
            ref = reference_simulate_shared_cache(streams, cfg(16, 4), block=block)
            assert r == ref


def test_interleave_reproduces_rotation():
    a = np.arange(5)
    b = np.arange(100, 107)
    merged, sids = interleave_round_robin([a, b], block=2, tag_bits=40)
    # turns: a[0:2] b[0:2] | a[2:4] b[2:4] | a[4] b[4:6] | b[6]
    assert sids.tolist() == [0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1]
    assert (merged[sids == 0] & ((1 << 40) - 1)).tolist() == a.tolist()
    assert (merged[sids == 1] & ((1 << 40) - 1)).tolist() == b.tolist()


def test_block_validation():
    with pytest.raises(ValueError):
        simulate_shared_cache([np.arange(4)], cfg(8), block=0)
