"""Multi-core shared-LLC simulation (extension).

The per-partition replays in :mod:`repro.memsim.cache` give each stream a
private cache slice.  Real sockets share one LLC among the cores, so
co-scheduled partitions *interfere*: their interleaved access streams
evict each other's lines.  This module replays several streams
round-robin (a fixed block of accesses per turn, emulating fair
scheduling) through one shared cache and reports misses per stream —
letting experiments measure how much of partitioning's benefit comes
from shrinking each stream's footprint below its *fair share* of the
shared cache.

The merged round-robin order is computed *analytically*: access ``j`` of
stream ``i`` runs in turn ``j // block``, and within a turn live streams
issue in stream order, so one stable sort of all accesses by
``(turn, stream)`` reproduces the exact schedule — including streams
dropping out of the rotation when exhausted (their later turns simply
contribute no keys).  The merged trace then goes through the same
grouped stack-distance kernel as the private simulator; the original
per-access scheduler walk is its differential-testing oracle
(``tests/references.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import CacheConfig
from .kernel import COLD, _sorted_positions, set_distances

__all__ = [
    "MulticoreResult",
    "interleave_round_robin",
    "simulate_shared_cache",
]


@dataclass(frozen=True)
class MulticoreResult:
    """Outcome of a shared-cache replay of several streams."""

    accesses_per_stream: tuple[int, ...]
    misses_per_stream: tuple[int, ...]

    @property
    def accesses(self) -> int:
        """Total accesses across all streams."""
        return sum(self.accesses_per_stream)

    @property
    def misses(self) -> int:
        """Total misses across all streams."""
        return sum(self.misses_per_stream)

    @property
    def miss_ratio(self) -> float:
        """Aggregate misses per access."""
        return self.misses / self.accesses if self.accesses else 0.0


def interleave_round_robin(
    streams: list[np.ndarray], *, block: int = 64, tag_bits: int = 40
) -> tuple[np.ndarray, np.ndarray]:
    """Merge ``streams`` into round-robin schedule order, vectorised.

    Returns ``(merged, stream_ids)``: the tagged addresses in global issue
    order and the issuing stream of each access.  Addresses of different
    streams are disambiguated by a stream tag in high bits (distinct
    partitions write distinct vertex ranges, but source reads can
    legitimately collide — callers who want shared source arrays should
    pre-offset their traces instead).
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    arrays = [np.asarray(s, dtype=np.int64) for s in streams]
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    if int(lengths.sum()) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    tagged = np.concatenate(
        [a | (np.int64(i) << tag_bits) for i, a in enumerate(arrays)]
    )
    stream_ids = np.repeat(np.arange(len(arrays), dtype=np.int64), lengths)
    within = np.concatenate([np.arange(n, dtype=np.int64) for n in lengths])
    turn_key = (within // block) * len(arrays) + stream_ids
    order, _ = _sorted_positions(turn_key)
    return tagged[order], stream_ids[order]


def simulate_shared_cache(
    streams: list[np.ndarray],
    config: CacheConfig,
    *,
    block: int = 64,
    tag_bits: int = 40,
) -> MulticoreResult:
    """Replay ``streams`` round-robin through one shared LRU cache.

    Each turn a stream issues up to ``block`` consecutive accesses (a
    core's scheduling quantum); streams that run out drop from the
    rotation.  Vectorised (analytic interleave + grouped stack-distance
    kernel); bit-identical to the scalar oracle in ``tests/references.py``.

    Returns per-stream miss counts.
    """
    lengths = tuple(int(np.asarray(s).size) for s in streams)
    if sum(lengths) == 0:
        return MulticoreResult(
            accesses_per_stream=lengths,
            misses_per_stream=(0,) * len(streams),
        )
    merged, stream_ids = interleave_round_robin(
        streams, block=block, tag_bits=tag_bits
    )
    d = set_distances(merged, config.num_sets)
    miss = (d == COLD) | (d >= config.associativity)
    per_stream = np.bincount(stream_ids[miss], minlength=len(streams))
    return MulticoreResult(
        accesses_per_stream=lengths,
        misses_per_stream=tuple(int(m) for m in per_stream),
    )


