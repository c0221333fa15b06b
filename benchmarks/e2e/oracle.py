"""What a correct result is: reference digests and an independent check.

Two oracles, because either alone can be fooled:

* **Reference digests** — blake2b of every result array from a *serial*
  engine on a store with a different partition count than the subject
  (P=1, the unpartitioned layout; the P=1 row is checked against P=384).
  Results are bit-identical across partition counts, backends and the
  grid, so any change that breaks that — a reordered reduction in one
  path, a lost update in a worker — shows as a digest mismatch.
* **Independent expectations** — the same answers computed here with
  ``numpy``/``scipy`` alone, sharing no code with the engine, so a change
  that shifts reference and subject *together* is still caught.

The digests cost a whole P=1 run (PageRank at P=1 is the slowest
configuration there is: that is the paper's point), so ``run.py`` asks
for them in traced runs only; the independent check runs every time.
"""

from __future__ import annotations

import hashlib

import functools

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from workloads import NUM_THREADS, call_key, run_call

#: relative tolerance of each independently checked result field; 0 is
#: exact.  Floating-point sums accumulate in another order here than in
#: the engine, so they agree to rounding, not to the bit.
FIELD_RTOL = {"ranks": 1e-9, "y": 1e-9, "level": 0.0, "dist": 1e-12, "labels": 0.0}

#: the result field the independent check covers, per algorithm code.
CHECKED_FIELD = {"PR": "ranks", "SPMV": "y", "BFS": "level", "BF": "dist", "CC": "labels"}


def digest(arrays: dict[str, np.ndarray]) -> str:
    """blake2b over names, dtypes, shapes and bytes of ``arrays``."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def field_matches(field: str, got: np.ndarray, want: np.ndarray) -> bool:
    """Whether ``got`` equals the independent expectation within tolerance."""
    if got.shape != want.shape:
        return False
    rtol = FIELD_RTOL[field]
    if rtol == 0.0:
        return bool(np.array_equal(got, want))
    return bool(np.allclose(got, want, rtol=rtol, atol=0.0, equal_nan=True))


# ----------------------------------------------------------------------
# independent expectations (numpy/scipy only)
# ----------------------------------------------------------------------
def _pagerank(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """10 rounds of the power method, damping 0.85, dangling mass spread."""
    out_deg = np.bincount(src, minlength=n).astype(np.float64)
    pull = sp.csr_matrix((np.ones(src.size), (dst, src)), shape=(n, n))
    safe = np.where(out_deg > 0, out_deg, 1.0)
    dangling = out_deg == 0
    ranks = np.full(n, 1.0 / n)
    for _ in range(10):
        spread = pull @ (ranks / safe) + ranks[dangling].sum() / n
        ranks = 0.15 / n + 0.85 * spread
    return ranks


def _label_propagation(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Minimum id over each vertex's ancestors (itself included)."""
    order = np.argsort(dst, kind="stable")
    s, d = src[order], dst[order]
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
    heads = d[starts]
    labels = np.arange(n, dtype=np.int64)
    while True:
        pulled = np.minimum(labels[heads], np.minimum.reduceat(labels[s], starts))
        if np.array_equal(pulled, labels[heads]):
            return labels
        labels[heads] = pulled


def independent_expectations(edges, calls) -> dict[str, np.ndarray]:
    """Expected value of each call's checked field, keyed like ``call_key``."""
    from repro.graph.weights import edge_weights  # the weights are input data

    n = edges.num_vertices
    src = edges.src.astype(np.int64)
    dst = edges.dst.astype(np.int64)

    @functools.cache
    def weights() -> np.ndarray:
        return edge_weights(edges.src, edges.dst)

    @functools.cache
    def adjacency(weighted: bool) -> sp.csr_matrix:
        values = weights() if weighted else np.ones(src.size)
        return sp.csr_matrix((values, (src, dst)), shape=(n, n))

    out: dict[str, np.ndarray] = {}
    for call in calls:
        code, source = call
        if code == "PR":
            value = _pagerank(n, src, dst)
        elif code == "SPMV":
            value = adjacency(True).T @ np.ones(n)
        elif code == "CC":
            value = _label_propagation(n, src, dst)
        elif code == "BFS":
            root = int(np.argmax(np.bincount(src, minlength=n))) if source is None else source
            hops = csgraph.shortest_path(
                adjacency(False), method="D", unweighted=True, indices=root
            )
            value = np.where(np.isfinite(hops), hops, -1).astype(np.int64)
        elif code == "BF":
            value = csgraph.dijkstra(adjacency(True), indices=source)
        else:
            raise ValueError(f"no independent check for algorithm {code!r}")
        out[call_key(call)] = value
    return out


# ----------------------------------------------------------------------
# reference digests (serial engine, other partition count)
# ----------------------------------------------------------------------
def reference_digests(edges, calls, partitions: int) -> dict[str, str]:
    """Digest of each call's result arrays from a serial engine at ``partitions``."""
    from repro.algorithms import registry
    from repro.core.engine import Engine
    from repro.core.options import EngineOptions
    from repro.layout.store import GraphStore

    store = GraphStore.build(edges, num_partitions=partitions)
    with Engine(store, EngineOptions(num_threads=NUM_THREADS, backend="serial")) as engine:
        return {
            call_key(call): digest(registry.result_arrays(run_call(engine, call)))
            for call in calls
        }
