"""Content-addressed simulation cache tests."""

import numpy as np
import pytest

from repro.memsim.cache import CacheConfig
from repro.memsim.reuse import reuse_histogram
from repro.memsim.simcache import SimulationCache, trace_fingerprint
from tests.references import reference_simulate_cache


def test_fingerprint_is_content_addressed(rng):
    t = rng.integers(0, 100, size=5000)
    assert trace_fingerprint(t) == trace_fingerprint(t.copy())
    assert trace_fingerprint(t) != trace_fingerprint(t[:-1])
    mutated = t.copy()
    mutated[1234] += 1
    assert trace_fingerprint(t) != trace_fingerprint(mutated)


def test_fingerprint_distinguishes_dtype_and_shape():
    t = np.arange(16, dtype=np.int64)
    assert trace_fingerprint(t) != trace_fingerprint(t.astype(np.int32))
    assert trace_fingerprint(t) != trace_fingerprint(t.reshape(4, 4))


def test_fingerprint_chunking_invariant(rng):
    t = rng.integers(0, 9, size=10_000)
    assert trace_fingerprint(t, chunk_bytes=64) == trace_fingerprint(t)
    # non-contiguous views hash their logical content.
    assert trace_fingerprint(t[::2]) == trace_fingerprint(t[::2].copy())


def test_simulate_hits_on_identical_content(rng):
    sim = SimulationCache()
    t = rng.integers(0, 200, size=3000)
    cfg = CacheConfig(capacity_bytes=64 * 32, associativity=8)
    first = sim.simulate(t, cfg)
    assert sim.misses == 1 and sim.hits == 0
    second = sim.simulate(t.copy(), cfg)
    assert second == first == reference_simulate_cache(t, cfg)
    assert sim.hits == 1


def test_profile_shared_across_associativities(rng):
    sim = SimulationCache()
    t = rng.integers(0, 200, size=3000)
    configs = [
        CacheConfig(capacity_bytes=64 * 8 * ways, associativity=ways)
        for ways in (1, 2, 4, 8)
    ]  # all share num_sets == 8
    results = sim.sweep(t, configs)
    assert sim.misses == 1  # one grouped pass answered every config
    for cfg in configs:
        assert results[cfg] == reference_simulate_cache(t, cfg)


def test_histogram_matches_reuse_histogram(rng):
    sim = SimulationCache()
    t = rng.integers(0, 64, size=2000)
    h = sim.histogram(t)
    ref = reuse_histogram(t)
    assert np.array_equal(h.distances, ref.distances)
    assert np.array_equal(h.counts, ref.counts)
    assert h.cold_accesses == ref.cold_accesses
    # served from cache the second time.
    before = sim.hits
    sim.histogram(t.copy())
    assert sim.hits == before + 1


def test_lru_bound_evicts_oldest(rng):
    sim = SimulationCache(max_entries=2)
    traces = [rng.integers(0, 50, size=500) for _ in range(3)]
    for t in traces:
        sim.profile(t, 4)
    assert len(sim) == 2
    sim.profile(traces[0], 4)  # evicted: recomputed, not a hit
    assert sim.hits == 0
    assert sim.misses == 4


def test_validation():
    with pytest.raises(ValueError):
        SimulationCache(max_entries=0)
    with pytest.raises(ValueError):
        SimulationCache().profile(np.arange(4), 0)
