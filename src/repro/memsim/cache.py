"""Set-associative LRU cache simulation.

Replays an address trace (in cache-line units) through a set-associative
LRU cache and counts misses — the reproduction's stand-in for the LLC
hardware counters behind the paper's Figure 8 (MPKI).

The simulator is exact and vectorised: a set-associative LRU with ``S``
sets misses exactly on accesses whose *per-set* stack distance (distinct
addresses mapping to the same set since the previous touch) reaches the
associativity, so one grouped stack-distance pass of
:mod:`repro.memsim.kernel` replaces the per-access Python replay.  The
per-set distances obey Mattson's inclusion property within a set count:
:func:`set_distance_profile` histograms them once and answers *every*
associativity (and therefore every capacity) sharing that set count, and
:func:`sweep_cache_configs` batches a whole configuration matrix that way.
The original per-access list-based replay is its differential-testing
oracle (``tests/references.py``).

A fully-associative variant driven by the stack-distance histogram is
available in :mod:`repro.memsim.reuse` when only miss counts for many
capacities are needed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..machine.spec import MachineSpec
from .kernel import COLD, set_distances

__all__ = [
    "CacheConfig",
    "CacheResult",
    "SetDistanceProfile",
    "simulate_cache",
    "set_distance_profile",
    "sweep_cache_configs",
    "llc_config",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one simulated cache level."""

    capacity_bytes: int
    line_bytes: int = 64
    associativity: int = 16

    def __post_init__(self) -> None:
        if self.line_bytes < 1:
            raise ValueError("line_bytes must be >= 1")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")
        if self.capacity_bytes < self.line_bytes:
            raise ValueError("capacity must hold at least one line")
        if self.capacity_bytes < self.line_bytes * self.associativity:
            # Below one full set the num_sets floor would silently simulate
            # a *larger* cache (one set of `associativity` lines) than the
            # requested capacity.
            raise ValueError(
                "capacity must hold at least one full set "
                "(associativity * line_bytes); lower the associativity"
            )

    @property
    def num_sets(self) -> int:
        """Number of cache sets (capacity floored to whole sets)."""
        return max(1, self.capacity_bytes // (self.line_bytes * self.associativity))


@dataclass(frozen=True)
class CacheResult:
    """Outcome of one trace replay."""

    accesses: int
    misses: int

    @property
    def hits(self) -> int:
        """Number of accesses served by the cache."""
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses per access."""
        return self.misses / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: int) -> float:
        """Misses per kilo-instruction given an instruction count."""
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        return self.misses / instructions * 1000.0


def llc_config(machine: MachineSpec, *, sharing_cores: int = 1) -> CacheConfig:
    """LLC slice available to a partition on ``machine``.

    ``sharing_cores`` models how many concurrently active partitions share
    the per-socket LLC (the cost model's cache-share logic).  The slice is
    clamped to one full set, the smallest geometry the simulator accepts
    (and exactly what the previous sub-set capacities were floored to).
    """
    return CacheConfig(
        capacity_bytes=max(
            machine.cache_line_bytes * machine.llc_associativity,
            machine.llc_bytes_per_socket // max(1, sharing_cores),
        ),
        line_bytes=machine.cache_line_bytes,
        associativity=machine.llc_associativity,
    )


@dataclass(frozen=True)
class SetDistanceProfile:
    """Per-set stack-distance histogram of one trace under one set count.

    Because per-set LRU stacks obey Mattson inclusion, this one histogram
    answers the miss count of *every* associativity at this set count —
    and hence every capacity ``num_sets * ways * line_bytes``.
    """

    num_sets: int
    #: sorted distinct finite per-set distances observed.
    distances: np.ndarray
    #: access count at each distance.
    counts: np.ndarray
    cold_accesses: int
    total_accesses: int

    def misses_for_ways(self, ways: int) -> int:
        """LRU misses with ``ways`` lines per set (cold + distance >= ways)."""
        if ways < 1:
            raise ValueError("ways must be >= 1")
        idx = np.searchsorted(self.distances, ways, side="left")
        return int(self.counts[idx:].sum()) + self.cold_accesses

    def result_for(self, ways: int) -> CacheResult:
        """:class:`CacheResult` of this trace at ``ways`` lines per set."""
        return CacheResult(
            accesses=self.total_accesses, misses=self.misses_for_ways(ways)
        )


def set_distance_profile(line_trace: np.ndarray, num_sets: int) -> SetDistanceProfile:
    """One grouped stack-distance pass over ``line_trace`` at ``num_sets``."""
    trace = np.asarray(line_trace, dtype=np.int64)
    d = set_distances(trace, num_sets)
    cold = int(np.count_nonzero(d == COLD))
    finite = d[d != COLD]
    if finite.size:
        distances, counts = np.unique(finite, return_counts=True)
    else:
        distances = np.empty(0, dtype=np.int64)
        counts = np.empty(0, dtype=np.int64)
    return SetDistanceProfile(
        num_sets=num_sets,
        distances=distances,
        counts=counts,
        cold_accesses=cold,
        total_accesses=int(trace.size),
    )


def simulate_cache(line_trace: np.ndarray, config: CacheConfig) -> CacheResult:
    """Replay ``line_trace`` (line addresses) through an LRU cache.

    Exact set-associative LRU via the grouped stack-distance kernel;
    bit-identical to the per-access oracle in ``tests/references.py``.
    """
    trace = np.asarray(line_trace, dtype=np.int64)
    n = int(trace.size)
    if n == 0:
        return CacheResult(accesses=0, misses=0)
    d = set_distances(trace, config.num_sets)
    misses = int(np.count_nonzero((d == COLD) | (d >= config.associativity)))
    return CacheResult(accesses=n, misses=misses)


def sweep_cache_configs(
    line_trace: np.ndarray, configs: Iterable[CacheConfig]
) -> dict[CacheConfig, CacheResult]:
    """Miss counts of ``line_trace`` under every configuration, batched.

    Configurations are grouped by set count; each distinct set count costs
    one grouped stack-distance pass, and every (capacity, associativity)
    pair sharing it is answered from the same histogram.
    """
    configs = list(configs)
    trace = np.asarray(line_trace, dtype=np.int64)
    profiles: dict[int, SetDistanceProfile] = {}
    out: dict[CacheConfig, CacheResult] = {}
    for config in configs:
        sets = config.num_sets
        if sets not in profiles:
            profiles[sets] = set_distance_profile(trace, sets)
        out[config] = profiles[sets].result_for(config.associativity)
    return out
