"""Memory-system simulation: reuse distances, LRU caches, layout traces."""

from .cache import (
    CacheConfig,
    CacheResult,
    SetDistanceProfile,
    llc_config,
    set_distance_profile,
    simulate_cache,
    sweep_cache_configs,
)
from .fenwick import Fenwick
from .kernel import set_distances, set_order, stack_distance_kernel
from .multicore import (
    MulticoreResult,
    interleave_round_robin,
    simulate_shared_cache,
)
from .reuse import (
    COLD,
    ReuseHistogram,
    histogram_of_distances,
    reuse_histogram,
    stack_distances,
)
from .simcache import SimulationCache, trace_fingerprint
from .trace import (
    interleave_traces,
    iter_next_array_chunks,
    next_array_trace,
    partition_edge_traces,
    partition_next_traces,
    vertex_lines,
)

__all__ = [
    "Fenwick",
    "MulticoreResult",
    "simulate_shared_cache",
    "interleave_round_robin",
    "stack_distances",
    "stack_distance_kernel",
    "set_distances",
    "set_order",
    "reuse_histogram",
    "histogram_of_distances",
    "ReuseHistogram",
    "COLD",
    "CacheConfig",
    "CacheResult",
    "SetDistanceProfile",
    "simulate_cache",
    "set_distance_profile",
    "sweep_cache_configs",
    "llc_config",
    "SimulationCache",
    "trace_fingerprint",
    "vertex_lines",
    "next_array_trace",
    "iter_next_array_chunks",
    "partition_next_traces",
    "partition_edge_traces",
    "interleave_traces",
]
