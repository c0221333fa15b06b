"""Hypothesis differentials: vectorised memsim kernels vs scalar references.

Every production path (chunked dominance-count, global dyadic, grouped
set-associative, analytic multicore interleave) must be bit-identical to
the retained scalar implementations on arbitrary traces — including the
degenerate shapes the offline formulation finds hardest: duplicate-heavy
traces, a single address, and empty inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.cache import CacheConfig, simulate_cache, sweep_cache_configs
from repro.memsim.kernel import set_distances, stack_distance_kernel
from repro.memsim.multicore import simulate_shared_cache
from tests.references import (
    reference_simulate_cache,
    reference_simulate_shared_cache,
    reference_stack_distances,
)

# duplicate-heavy by construction: domain far smaller than the length.
dense_traces = st.lists(st.integers(min_value=0, max_value=11), max_size=150)
sparse_traces = st.lists(
    st.integers(min_value=-(10**15), max_value=10**15), max_size=80
)


@given(dense_traces, st.sampled_from([4, 16, 64]))
@settings(max_examples=60, deadline=None)
def test_chunked_path_matches_reference(trace, chunk):
    t = np.array(trace, dtype=np.int64)
    got = stack_distance_kernel(t, path="chunked", chunk=chunk)
    assert np.array_equal(got, reference_stack_distances(t))


@given(dense_traces)
@settings(max_examples=60, deadline=None)
def test_global_path_matches_reference(trace):
    t = np.array(trace, dtype=np.int64)
    got = stack_distance_kernel(t, path="global")
    assert np.array_equal(got, reference_stack_distances(t))


@given(sparse_traces)
@settings(max_examples=40, deadline=None)
def test_huge_span_addresses_both_paths(trace):
    t = np.array(trace, dtype=np.int64)
    ref = reference_stack_distances(t)
    for path in ("chunked", "global"):
        assert np.array_equal(stack_distance_kernel(t, path=path), ref)


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=20, deadline=None)
def test_single_address_trace(n):
    t = np.zeros(n, dtype=np.int64)
    ref = reference_stack_distances(t)
    for path in ("chunked", "global"):
        assert np.array_equal(stack_distance_kernel(t, path=path), ref)


@given(dense_traces, st.sampled_from([1, 2, 3, 8]), st.sampled_from([1, 2, 4]))
@settings(max_examples=60, deadline=None)
def test_set_associative_matches_list_replay(trace, num_sets, ways):
    t = np.array(trace, dtype=np.int64)
    cfg = CacheConfig(
        capacity_bytes=64 * num_sets * ways, line_bytes=64, associativity=ways
    )
    assert cfg.num_sets == num_sets
    assert simulate_cache(t, cfg) == reference_simulate_cache(t, cfg)


@given(dense_traces, st.sampled_from([2, 4, 8]))
@settings(max_examples=30, deadline=None)
def test_set_distance_miss_law(trace, num_sets):
    """Misses derived from per-set distances obey Mattson monotonicity."""
    t = np.array(trace, dtype=np.int64)
    d = set_distances(t, num_sets)
    misses = [
        int(np.count_nonzero((d == -1) | (d >= ways))) for ways in (1, 2, 4, 8)
    ]
    assert misses == sorted(misses, reverse=True)


@given(
    st.lists(dense_traces, max_size=4),
    st.sampled_from([1, 3, 16]),
    st.sampled_from([2, 4]),
)
@settings(max_examples=40, deadline=None)
def test_multicore_matches_scheduler_walk(streams, block, ways):
    arrays = [np.array(s, dtype=np.int64) for s in streams]
    cfg = CacheConfig(capacity_bytes=64 * 4 * ways, associativity=ways)
    got = simulate_shared_cache(arrays, cfg, block=block)
    ref = reference_simulate_shared_cache(arrays, cfg, block=block)
    assert got == ref


@given(dense_traces)
@settings(max_examples=30, deadline=None)
def test_sweep_matches_individual_replays(trace):
    t = np.array(trace, dtype=np.int64)
    configs = [
        CacheConfig(capacity_bytes=64 * s * w, associativity=w)
        for s, w in ((1, 1), (2, 2), (4, 2), (4, 8))
    ]
    swept = sweep_cache_configs(t, configs)
    for cfg in configs:
        assert swept[cfg] == reference_simulate_cache(t, cfg)
