"""Deterministic synthetic edge weights.

Several of the paper's algorithms (Bellman-Ford, SPMV, BP) need edge
weights, but the datasets are unweighted; like the original frameworks we
attach synthetic weights.  Weights are computed as a *pure function of the
endpoint pair* via a vectorised integer hash, so every layout — whichever
order it stores edges in — sees identical weights.  That makes them layout
data computed on demand: the engine hashes a layout's edges once into a
weight array parallel to them and keeps one per layout, rebuilt for another
:class:`WeightFn` value, and anything without that array hashes the edges
it holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["edge_weights", "WeightFn"]


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: a high-quality vectorised 64-bit mixer.

    Mixes ``x`` — a ``uint64`` array the caller owns, whose arithmetic
    already wraps mod 2^64 — in place, and returns it.
    """
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def edge_weights(
    src: np.ndarray,
    dst: np.ndarray,
    *,
    low: float = 1.0,
    high: float = 2.0,
    seed: int = 0,
) -> np.ndarray:
    """Weight of each edge ``(src[i], dst[i])`` in ``[low, high)``.

    Deterministic in (endpoints, seed); independent of edge order.
    """
    with np.errstate(over="ignore"):
        seed_mix = np.uint64(seed) * np.uint64(0xD6E8FEB86659FD93)
        key = (src.astype(np.uint64) << np.uint64(32)) ^ dst.astype(np.uint64) ^ seed_mix
    h = _splitmix64(key)
    unit = h.astype(np.float64) / float(2**64)
    return low + unit * (high - low)


@dataclass(frozen=True)
class WeightFn:
    """A reusable ``(src, dst) -> weights`` callable with fixed range/seed.

    Equal, and hashing equal, by value: two equal ones share the engine's
    one cached weight array per layout."""

    low: float = 1.0
    high: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:  # fields are plain numbers, whatever was passed
        for name, cast in (("low", float), ("high", float), ("seed", int)):
            object.__setattr__(self, name, cast(getattr(self, name)))

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return edge_weights(src, dst, low=self.low, high=self.high, seed=self.seed)
