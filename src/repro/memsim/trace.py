"""Memory-trace generation from graph layouts.

These functions emit the address streams (in cache-line units) that a C
implementation of each traversal would issue against the per-vertex data
arrays — the *next* arrays (frontier bitmap + attributes of destinations,
randomly accessed in forward traversals) and the *current* arrays (source
attributes).  Reuse-distance analysis and cache simulation of these
streams reproduce the paper's locality measurements (Figures 2 and 8)
without hardware counters: the access *order* is a property of the layout,
which we reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from ..layout.coo import PartitionedCOO
from ..layout.pcsr import PartitionedCSR

__all__ = [
    "vertex_lines",
    "next_array_trace",
    "iter_next_array_chunks",
    "partition_edge_traces",
    "interleave_traces",
]

#: edges consumed per chunk by the chunked trace generator.
DEFAULT_CHUNK_EDGES = 1 << 20

#: bytes of per-vertex state behind each access (attribute value).
BYTES_PER_VALUE = 8


def vertex_lines(
    vertex_ids: np.ndarray,
    *,
    bytes_per_value: int = BYTES_PER_VALUE,
    line_bytes: int = 64,
) -> np.ndarray:
    """Cache-line address touched by each per-vertex access."""
    return vertex_ids.astype(np.int64) * bytes_per_value // line_bytes


def next_array_trace(
    coo: PartitionedCOO,
    *,
    active: np.ndarray | None = None,
    line_bytes: int = 64,
    max_accesses: int | None = None,
) -> np.ndarray:
    """Next-array (destination) access stream of a full forward traversal.

    Partitions are traversed in order, edges in the layout's storage order
    — exactly the stream whose reuse distances Figure 2 plots.  ``active``
    optionally masks to edges with an active source (sparse frontiers).
    ``max_accesses`` truncates the stream (byte-identical to slicing the
    full trace) without materialising the part past the cut: generation
    stops as soon as enough accesses have accumulated.
    """
    if max_accesses is None:
        dst = coo.dst
        if active is not None:
            dst = dst[np.asarray(active, dtype=bool)[coo.src]]
        return vertex_lines(dst, line_bytes=line_bytes)
    if max_accesses < 0:
        raise ValueError("max_accesses must be >= 0")
    parts: list[np.ndarray] = []
    have = 0
    for chunk in iter_next_array_chunks(coo, active=active, line_bytes=line_bytes):
        parts.append(chunk)
        have += chunk.size
        if have >= max_accesses:
            break
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)[:max_accesses]


def iter_next_array_chunks(
    coo: PartitionedCOO,
    *,
    active: np.ndarray | None = None,
    line_bytes: int = 64,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
):
    """Yield the next-array stream in bounded chunks.

    Concatenating the yielded chunks reproduces :func:`next_array_trace`
    byte-for-byte; each chunk consumes at most ``chunk_edges`` edges, so
    the frontier mask and line-address intermediates stay bounded.
    """
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    mask = np.asarray(active, dtype=bool) if active is not None else None
    num_edges = coo.dst.size
    for start in range(0, num_edges, chunk_edges):
        stop = min(start + chunk_edges, num_edges)
        dst = coo.dst[start:stop]
        if mask is not None:
            dst = dst[mask[coo.src[start:stop]]]
        yield vertex_lines(dst, line_bytes=line_bytes)


def interleave_traces(a: np.ndarray, b: np.ndarray, *, b_offset: int) -> np.ndarray:
    """Interleave two equal-length streams (read src, write dst per edge).

    ``b_offset`` shifts the second stream's line addresses so the two
    arrays do not alias (they are distinct allocations on the machine).
    """
    if a.shape != b.shape:
        raise ValueError("streams must have equal length")
    out = np.empty(a.size * 2, dtype=np.int64)
    out[0::2] = a
    out[1::2] = b + b_offset
    return out


def partition_edge_traces(
    layout: PartitionedCOO | PartitionedCSR,
    *,
    active: np.ndarray | None = None,
    line_bytes: int = 64,
    bytes_per_value: int = BYTES_PER_VALUE,
) -> list[np.ndarray]:
    """Per-partition interleaved (source-read, destination-write) streams.

    Works for both the COO layout and the partitioned CSR (whose edge
    order within a partition is CSR order).  This is the trace behind the
    MPKI experiment (Figure 8).
    """
    num_vertices = layout.num_vertices
    offset = (num_vertices * bytes_per_value) // line_bytes + 1
    traces = []
    if isinstance(layout, PartitionedCOO):
        pairs = (layout.partition_edges(i) for i in range(layout.num_partitions))
    else:
        pairs = (
            (part.edge_sources(), part.edge_destinations()) for part in layout.parts
        )
    for src, dst in pairs:
        if active is not None:
            keep = np.asarray(active, dtype=bool)[src]
            src, dst = src[keep], dst[keep]
        s = vertex_lines(src, bytes_per_value=bytes_per_value, line_bytes=line_bytes)
        d = vertex_lines(dst, bytes_per_value=bytes_per_value, line_bytes=line_bytes)
        traces.append(interleave_traces(s, d, b_offset=offset))
    return traces
