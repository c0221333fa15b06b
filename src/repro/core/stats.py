"""Execution statistics recorded by the engine.

The paper's performance claims rest on mechanisms (work, replication,
atomics, locality, load balance) that a pure-Python re-run cannot time
directly, so every ``edge_map`` records the quantities those mechanisms
depend on.  The machine cost model (:mod:`repro.machine.cost`) turns a
:class:`RunStats` into simulated execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..frontier.density import DensityClass

__all__ = ["EdgeMapStats", "VertexMapStats", "BackendStats", "RunStats", "stats_of"]


@dataclass
class BackendStats:
    """Cumulative counters of one engine's execution backend.

    Mutable and engine-lifetime (unlike the per-phase stats): the worker
    pool, the shared-memory layout cache, and any fallback to serial all
    outlive individual ``edge_map`` calls.  :meth:`Engine.reset_stats
    <repro.core.engine.Engine.reset_stats>` attaches a point-in-time
    copy to the detached :class:`RunStats`.
    """

    #: the ``EngineOptions.backend`` spec this engine was built with.
    spec: str = "serial"
    #: backend kind currently executing partition batches ("serial"
    #: also after a fallback demoted a dead process pool).
    kind: str = "serial"
    #: worker processes the pool was started with (0 until first dispatch).
    workers_spawned: int = 0
    #: partition batches handed to the concurrent backend.
    batches_dispatched: int = 0
    #: partitions executed out-of-process (a task may span a run of them).
    partitions_dispatched: int = 0
    #: bytes of shared memory mapped for layouts, frontiers and operator
    #: state (layout segments are counted once — they are cached across
    #: phases).
    shm_bytes_mapped: int = 0
    #: bytes a republish-every-phase backend *would* have copied: the
    #: full size of every state/frontier array at every dispatch.  The
    #: denominator of the republish-savings ratio.
    shm_bytes_requested: int = 0
    #: bytes actually copied into already-published segments.
    #: ``shm_bytes_requested / shm_bytes_republished`` is the
    #: persistent-segment win; adopted state republishes zero bytes.
    shm_bytes_republished: int = 0
    #: dispatches served by an already-published segment instead of a
    #: fresh create/copy/unlink cycle.
    segments_reused: int = 0
    #: times a backend failure demoted execution to the serial path.
    fallbacks: int = 0


@dataclass(frozen=True)
class EdgeMapStats:
    """Counters for one edge-map invocation."""

    #: layout traversed: "csr" (whole), "pcsr" (partitioned), "csc", "coo".
    layout: str
    #: "forward" or "backward".
    direction: str
    #: density class the decision procedure assigned.
    density: DensityClass
    #: |F| — active vertices entering the call.
    frontier_size: int
    #: edges whose update was actually applied (active source, cond holds).
    active_edges: int
    #: edges scanned by the traversal (includes skipped/inactive ones).
    examined_edges: int
    #: vertex index entries visited, including replicated copies (work
    #: inflation of §II.F).
    scanned_vertices: int
    #: number of distinct vertices activated (next frontier size).
    updated_vertices: int
    #: whether this traversal needs hardware atomics on the real machine.
    uses_atomics: bool
    #: number of partitions/chunks the traversal was split into.
    num_partitions: int
    #: per-partition examined-edge counts (drives the makespan model);
    #: ``None`` when the traversal is not partitioned.
    partition_examined: np.ndarray | None = None
    #: per-partition counts of *distinct destination vertices* updated,
    #: a proxy for each chunk's random-access working set (locality model).
    partition_touched_vertices: np.ndarray | None = None
    #: bytes streamed from disk by out-of-core grid execution (0 for
    #: in-memory layouts); drives the cost model's I/O term.
    io_bytes: int = 0
    #: grid blocks read from disk during this call (cache hits excluded).
    io_blocks: int = 0


@dataclass(frozen=True)
class VertexMapStats:
    """Counters for one vertex-map invocation."""

    frontier_size: int


@dataclass
class RunStats:
    """All statistics of one algorithm run."""

    edge_maps: list[EdgeMapStats] = field(default_factory=list)
    vertex_maps: list[VertexMapStats] = field(default_factory=list)
    #: snapshot of the engine's backend counters at detach time; ``None``
    #: until the engine attaches one in ``reset_stats``.
    backend: BackendStats | None = None

    # ------------------------------------------------------------------
    @property
    def num_iterations(self) -> int:
        """Number of edge-map rounds executed."""
        return len(self.edge_maps)

    def total_active_edges(self) -> int:
        """Total applied edge updates across the run."""
        return sum(s.active_edges for s in self.edge_maps)

    def total_examined_edges(self) -> int:
        """Total scanned edges across the run."""
        return sum(s.examined_edges for s in self.edge_maps)

    def density_histogram(self) -> dict[DensityClass, int]:
        """How many rounds fell in each density class (cf. the paper's
        PRDelta breakdown: 8 dense, 3 medium-dense, 22 sparse)."""
        hist = {c: 0 for c in DensityClass}
        for s in self.edge_maps:
            hist[s.density] += 1
        return hist

    def layout_histogram(self) -> dict[str, int]:
        """How many rounds used each layout."""
        hist: dict[str, int] = {}
        for s in self.edge_maps:
            hist[s.layout] = hist.get(s.layout, 0) + 1
        return hist


def stats_of(result: object) -> RunStats:
    """Extract run statistics from any algorithm result object."""
    if hasattr(result, "stats"):
        return result.stats
    if hasattr(result, "forward_stats"):  # betweenness centrality
        return RunStats(
            edge_maps=list(result.forward_stats.edge_maps)
            + list(result.backward_stats.edge_maps),
            vertex_maps=list(result.forward_stats.vertex_maps)
            + list(result.backward_stats.vertex_maps),
        )
    raise TypeError(f"result {type(result)!r} carries no statistics")
