"""Set-associative LRU cache simulation tests."""

import numpy as np
import pytest

from repro.machine.spec import MachineSpec
from repro.memsim.cache import (
    CacheConfig,
    CacheResult,
    llc_config,
    set_distance_profile,
    simulate_cache,
)
from repro.memsim.reuse import reuse_histogram
from repro.memsim.simcache import SimulationCache
from tests.references import reference_simulate_cache


def test_empty_trace():
    r = simulate_cache(np.array([]), CacheConfig(capacity_bytes=1024))
    assert r.accesses == 0
    assert r.misses == 0
    assert r.miss_ratio == 0.0


def test_all_cold_misses():
    cfg = CacheConfig(capacity_bytes=64 * 16, associativity=4)
    r = simulate_cache(np.arange(100), cfg)
    assert r.misses == 100


def test_perfect_reuse_hits():
    cfg = CacheConfig(capacity_bytes=64 * 64, associativity=64)
    t = np.tile(np.arange(8), 10)
    r = simulate_cache(t, cfg)
    assert r.misses == 8
    assert r.hits == 72


def test_capacity_eviction():
    # Direct-capacity test: fully-associative 4-line cache, cyclic over 8.
    cfg = CacheConfig(capacity_bytes=64 * 4, line_bytes=64, associativity=4)
    t = np.tile(np.arange(8), 3)
    r = simulate_cache(t, cfg)
    assert r.misses == 24  # LRU thrashes completely


def test_fully_associative_matches_histogram(rng):
    t = rng.integers(0, 50, size=2000)
    h = reuse_histogram(t)
    for lines in (4, 16, 64):
        cfg = CacheConfig(capacity_bytes=64 * lines, associativity=lines)
        assert simulate_cache(t, cfg).misses == h.misses_for_capacity(lines)


def test_set_conflicts_cause_extra_misses(rng):
    """A low-associativity cache of equal capacity misses at least as
    often as the fully-associative one."""
    t = rng.integers(0, 200, size=3000)
    full = CacheConfig(capacity_bytes=64 * 64, associativity=64)
    direct = CacheConfig(capacity_bytes=64 * 64, associativity=1)
    assert simulate_cache(t, direct).misses >= simulate_cache(t, full).misses


def test_mpki():
    r = CacheResult(accesses=1000, misses=30)
    assert r.mpki(10_000) == 3.0
    with pytest.raises(ValueError):
        r.mpki(0)


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(capacity_bytes=32, line_bytes=64)
    with pytest.raises(ValueError):
        CacheConfig(capacity_bytes=1024, associativity=0)


def test_config_rejects_capacity_below_one_set():
    # Previously a dead branch: such a config would silently simulate a
    # full set (a *larger* cache than requested).
    with pytest.raises(ValueError, match="full set"):
        CacheConfig(capacity_bytes=64 * 8, line_bytes=64, associativity=16)
    # exactly one set is the smallest accepted geometry.
    assert CacheConfig(64 * 16, line_bytes=64, associativity=16).num_sets == 1


def test_num_sets():
    cfg = CacheConfig(capacity_bytes=64 * 32, line_bytes=64, associativity=8)
    assert cfg.num_sets == 4


def test_llc_config_sharing():
    m = MachineSpec()
    whole = llc_config(m, sharing_cores=1)
    shared = llc_config(m, sharing_cores=12)
    assert whole.capacity_bytes == m.llc_bytes_per_socket
    assert shared.capacity_bytes == m.llc_bytes_per_socket // 12
    assert shared.line_bytes == m.cache_line_bytes


def test_matches_reference_replay(rng):
    t = rng.integers(0, 300, size=4000)
    for lines, ways in ((4, 1), (16, 4), (64, 16), (32, 32)):
        cfg = CacheConfig(capacity_bytes=64 * lines, associativity=ways)
        assert simulate_cache(t, cfg) == reference_simulate_cache(t, cfg)


def test_set_distance_profile_answers_all_ways(rng):
    t = rng.integers(0, 150, size=3000)
    profile = set_distance_profile(t, num_sets=8)
    assert profile.total_accesses == t.size
    for ways in (1, 2, 4, 8, 16):
        cfg = CacheConfig(
            capacity_bytes=64 * 8 * ways, line_bytes=64, associativity=ways
        )
        assert cfg.num_sets == 8
        assert profile.result_for(ways) == reference_simulate_cache(t, cfg)
    with pytest.raises(ValueError):
        profile.misses_for_ways(0)


def test_sweep_groups_by_set_count(rng):
    t = rng.integers(0, 200, size=2500)
    configs = [
        CacheConfig(capacity_bytes=64 * lines, associativity=ways)
        for lines, ways in ((8, 2), (16, 4), (32, 8), (64, 16), (16, 16))
    ]
    swept = SimulationCache().sweep(t, configs)
    assert set(swept) == set(configs)
    for cfg in configs:
        assert swept[cfg] == reference_simulate_cache(t, cfg)
