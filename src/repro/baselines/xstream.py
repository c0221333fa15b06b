"""X-Stream-style edge-centric scatter–shuffle–gather execution (paper §V).

X-Stream (Roy et al., SOSP'13) is the paper's closest related work: it
also uses graph partitioning for locality, but targets *spatial* locality
by never updating vertices in place.  Each iteration:

1. **scatter** — stream every active edge sequentially and append an
   update record ``(destination, value)`` to an in-memory buffer;
2. **shuffle** — group the update records by destination partition
   (X-Stream's sort/shuffle stage);
3. **gather** — stream each partition's updates sequentially and apply
   them to the vertex array.

All memory access is sequential, but every active edge turns into an
update record that is written, shuffled and re-read — the extra work the
paper blames for X-Stream's sub-optimal performance ("the shuffle stage,
however, significantly increases execution time", §I).

This module provides a *semantically faithful* executor over the same
:class:`~repro.core.ops.EdgeOperator` protocol (results are
batch-identical for the commutative operators all algorithms here use)
plus a cost accounting of the scatter/shuffle/gather traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import VID_DTYPE
from ..core.ops import EdgeOperator, process_batch
from ..core.stats import EdgeMapStats, RunStats
from ..frontier.density import DensityClass
from ..frontier.frontier import Frontier
from ..graph.edgelist import EdgeList
from ..machine.spec import MachineSpec
from ..partition.by_source import partition_by_source
from ..partition.vertex_partition import VertexPartition

__all__ = ["XStreamEngine", "XStreamCosts"]


@dataclass(frozen=True)
class XStreamCosts:
    """Per-event costs of the streaming pipeline (nanoseconds).

    ``t_shuffle_ns`` covers appending an update record, bucketing it by
    destination partition and re-reading it in the gather phase — the
    dominant overhead the paper attributes to X-Stream.  The default is
    calibrated to X-Stream's published Twitter PageRank throughput
    (SOSP'13: tens of seconds per iteration over 1.5 B edges on a
    16-core machine, i.e. several hundred core-nanoseconds per edge).
    """

    t_edge_ns: float = 1.0
    t_update_ns: float = 1.5
    t_shuffle_ns: float = 180.0
    t_barrier_ns: float = 10_000.0


class XStreamEngine:
    """Edge-centric scatter–shuffle–gather over source-partitioned streams.

    API mirrors :class:`repro.core.engine.Engine` closely enough that the
    frontier algorithms run unchanged (``edge_map`` / ``vertex_map`` /
    ``reset_stats`` / ``store``-like attributes).
    """

    class _StoreShim:
        """Minimal store facade so algorithm code can read degrees."""

        def __init__(self, edges: EdgeList) -> None:
            self.edges = edges
            self.out_degrees = edges.out_degrees()
            self.in_degrees = edges.in_degrees()

    def __init__(
        self,
        edges: EdgeList,
        *,
        num_partitions: int = 4,
        num_threads: int = 48,
    ) -> None:
        self.edges = edges
        self.num_threads = num_threads
        self.store = XStreamEngine._StoreShim(edges)
        # X-Stream partitions by *source* so the scatter streams are
        # sequential per partition.
        self.partition: VertexPartition = partition_by_source(
            edges, min(num_partitions, max(edges.num_vertices, 1))
        )
        order = np.argsort(self.partition.partition_of(edges.src), kind="stable")
        self._src = edges.src[order]
        self._dst = edges.dst[order]
        counts = np.bincount(
            self.partition.partition_of(self._src),
            minlength=self.partition.num_partitions,
        )
        self._offsets = np.zeros(self.partition.num_partitions + 1, dtype=np.int64)
        np.cumsum(counts, out=self._offsets[1:])
        self.stats = RunStats()

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """|V| of the processed graph."""
        return self.edges.num_vertices

    @property
    def num_edges(self) -> int:
        """|E| of the processed graph."""
        return self.edges.num_edges

    def reset_stats(self) -> RunStats:
        """Detach and return accumulated statistics."""
        out = self.stats
        self.stats = RunStats()
        return out

    # ------------------------------------------------------------------
    def edge_map(self, frontier: Frontier, op: EdgeOperator) -> Frontier:
        """One scatter–shuffle–gather iteration.

        The scatter phase collects the active edges of every streaming
        partition into an update list; the shuffle groups updates by
        destination partition; the gather applies them partition by
        partition through the operator.
        """
        if frontier.is_empty:
            return Frontier.empty(self.num_vertices)
        bitmap = frontier.as_bitmap()

        # --- scatter: sequential pass over each partition's edge stream.
        upd_src: list[np.ndarray] = []
        upd_dst: list[np.ndarray] = []
        for i in range(self.partition.num_partitions):
            lo, hi = int(self._offsets[i]), int(self._offsets[i + 1])
            s, d = self._src[lo:hi], self._dst[lo:hi]
            live = bitmap[s]
            cond = op.cond(d)
            if cond is not None:
                live = live & cond
            upd_src.append(s[live])
            upd_dst.append(d[live])
        src = np.concatenate(upd_src) if upd_src else np.empty(0, VID_DTYPE)
        dst = np.concatenate(upd_dst) if upd_dst else np.empty(0, VID_DTYPE)

        # --- shuffle: bucket the update records by destination partition.
        shuffle_order = np.argsort(self.partition.partition_of(dst), kind="stable")
        src, dst = src[shuffle_order], dst[shuffle_order]

        # --- gather: apply updates sequentially per destination bucket.
        activated = process_batch(op, src, dst)
        nxt = Frontier(self.num_vertices, sparse=activated)

        self.stats.edge_maps.append(
            EdgeMapStats(
                layout="xstream",
                direction="forward",
                density=DensityClass.DENSE,
                frontier_size=frontier.size,
                active_edges=int(src.size),
                examined_edges=self.num_edges,
                scanned_vertices=0,
                updated_vertices=nxt.size,
                uses_atomics=False,
                num_partitions=self.partition.num_partitions,
            )
        )
        return nxt

    def vertex_map(self, frontier: Frontier, fn) -> None:
        """Apply ``fn(active_ids)`` (same contract as the main engine)."""
        from ..core.stats import VertexMapStats

        self.stats.vertex_maps.append(VertexMapStats(frontier_size=frontier.size))
        if not frontier.is_empty:
            fn(frontier.as_sparse())

    def vertex_filter(self, frontier: Frontier, pred) -> Frontier:
        """Filter active vertices (same contract as the main engine)."""
        if frontier.is_empty:
            return frontier
        ids = frontier.as_sparse()
        keep = np.asarray(pred(ids), dtype=bool)
        return Frontier(self.num_vertices, sparse=ids[keep])

    # ------------------------------------------------------------------
    def run_time_seconds(
        self,
        run: RunStats,
        machine: MachineSpec,  # noqa: ARG002 - kept for signature symmetry
        *,
        costs: XStreamCosts | None = None,
        update_scale: float = 1.0,
    ) -> float:
        """Simulated time of an X-Stream run.

        Sequential streaming means no random-access term; instead every
        active edge pays the full scatter/shuffle/gather record cost.
        """
        c = costs or XStreamCosts()
        total = 0.0
        for s in run.edge_maps:
            work = (
                s.examined_edges * c.t_edge_ns
                + s.active_edges * (c.t_update_ns * update_scale + c.t_shuffle_ns)
            )
            total += work / self.num_threads + c.t_barrier_ns
        total += sum(
            v.frontier_size * 2.0 / self.num_threads + c.t_barrier_ns / 2
            for v in run.vertex_maps
        )
        return total * 1e-9
