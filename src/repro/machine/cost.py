"""Calibrated analytic cost model: engine statistics → simulated machine time.

This is the reproduction's substitute for wall-clock measurements on the
paper's 48-thread NUMA machine (see DESIGN.md).  Every mechanism the paper
credits or blames for performance is an explicit term:

* **work** — per examined edge, per applied update and per scanned vertex
  slot (the replication-driven work inflation of §II.F);
* **atomics** — an extra per-update cost whenever a traversal cannot
  guarantee single-writer destinations (§III.C: the paper measures
  6.1–23.7 % from eliding them);
* **locality** — random accesses to the *next* arrays cost a blend of LLC
  hits and DRAM misses; the miss probability grows with the ratio of the
  partition's destination working set to its LLC share, so
  partitioning-by-destination shrinks it (Figures 2/8), while backward
  CSC traversals read *sources*, whose working set partitioning does not
  confine (§II.C: "partitioning-by-destination does not affect the memory
  locality of [CSC] graph traversal");
* **current-array sweep** — each partition re-reads the attributes of its
  distinct sources; summed over partitions this grows like the
  replication factor and produces the high-partition-count upturn
  (Figure 5's 480-partition point);
* **NUMA** — misses pay a remote surcharge with probability given by the
  placement policy (§III.D);
* **scheduling** — a fixed dispatch cost per partition-task and a barrier
  per edge map;
* **load balance** — the parallel time is the makespan of per-partition
  costs (edge-balanced partitions beat contiguous vertex chunking, §IV.A).

All constants live in :class:`CostParameters`; units are nanoseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.stats import EdgeMapStats, RunStats
from ..frontier.distinct import sorted_distinct
from ..layout.store import GraphStore
from .numa import remote_access_fraction
from .scheduler import chunked_makespan, makespan
from .spec import MachineSpec

__all__ = ["CostParameters", "LayoutProfile", "CostModel", "profile_store"]


@dataclass(frozen=True)
class CostParameters:
    """Calibration constants (nanoseconds unless noted)."""

    #: streaming cost per examined edge (load ids, test activity).
    t_edge_ns: float = 1.0
    #: additional cost per applied update.
    t_update_ns: float = 1.5
    #: cost per scanned vertex index slot (control overhead, §II.F).
    t_vertex_ns: float = 2.0
    #: extra per update executed with a hardware atomic (§III.C).
    t_atomic_ns: float = 7.0
    #: random access that hits in the LLC.
    t_llc_hit_ns: float = 5.0
    #: random access that misses to local DRAM.
    t_mem_ns: float = 75.0
    #: surcharge when the miss is served by a remote NUMA node.
    t_remote_ns: float = 60.0
    #: per-partition task dispatch (Cilk spawn/steal path).
    t_sched_ns: float = 2000.0
    #: per-edge-map barrier/fork-join cost.
    t_barrier_ns: float = 10_000.0
    #: cost of touching one distinct source vertex's attributes during a
    #: partition's current-array sweep (spatially batched read).
    t_src_touch_ns: float = 26.0
    #: bytes of per-vertex state behind each random access (next frontier
    #: bit + attribute value).
    bytes_per_vertex_state: float = 9.0
    #: asymptotic miss probability of random accesses when the working set
    #: vastly exceeds the cache (hot Zipf head stays resident).
    miss_p_max: float = 0.9
    #: cache/working-set ratio at which the miss probability halves.
    miss_x0: float = 0.5
    #: sharpness of the miss-probability decline (Che-approximation fit
    #: for Zipf-popularity reuse; smaller = more gradual).
    miss_beta: float = 0.7
    #: miss-cost multiplier for random *writes* (RFO plus dirty
    #: write-back traffic) relative to reads.
    write_miss_mult: float = 1.15
    #: floor of the capacity-miss probability: once a partition's random
    #: footprint is tiny, residual misses (coherence, bitmap, TLB) stop
    #: improving — calibrated so locality gains saturate near the paper's
    #: 384-partition optimum at Twitter-like working-set/cache ratios.
    miss_p_floor: float = 0.17
    #: dispatch cost of one CSC computation-range chunk, cheaper than a
    #: full COO partition task (a contiguous loop range, no task state).
    t_range_sched_ns: float = 1000.0
    #: edge count at which the scheduling/barrier constants above are
    #: calibrated (the Twitter stand-in).  Because the reproduction scales
    #: graphs down, fixed overheads must scale with them to preserve the
    #: overhead:work ratios of the paper's operating point — the same
    #: argument as scaling the LLC (see MachineSpec.scaled_for).
    reference_edges: float = 680_000.0
    #: per-block seek/submit latency of the out-of-core grid's spill
    #: device (SSD-class random read).
    t_io_seek_ns: float = 50_000.0
    #: sequential streaming throughput of the spill device, in bytes per
    #: nanosecond (2.0 ≈ 2 GB/s — GridGraph's SSD-array operating point).
    io_bytes_per_ns: float = 2.0


@dataclass(frozen=True)
class LayoutProfile:
    """Per-store quantities the model needs beyond per-call statistics."""

    num_vertices: int
    num_edges: int
    #: per-COO-partition edge counts.
    coo_edges: np.ndarray
    #: distinct source vertices appearing in each COO partition.
    coo_distinct_src: np.ndarray
    #: distinct destination vertices in each COO partition.
    coo_distinct_dst: np.ndarray
    #: stored (replicated) vertex slots per partitioned-CSR partition;
    #: equals ``coo_distinct_src`` because both group edges by destination
    #: partition and index them by source.
    pcsr_stored_vertices: np.ndarray
    #: per-partition count of cache-line *switches* in the source-read
    #: stream (consecutive edges touching different source lines) — the
    #: spatial-locality measure the intra-partition edge order controls
    #: (§IV.C): sorting by source makes this small, Hilbert keeps both
    #: streams' switch counts low.
    coo_src_line_switches: np.ndarray
    #: per-partition line switches of the destination-write stream.
    coo_dst_line_switches: np.ndarray
    #: makespan inflation of splitting the *unpartitioned* graph into
    #: contiguous equal-vertex chunks (the paper's §IV.A imbalance).
    unpartitioned_imbalance: float


def _line_switches(ids: np.ndarray, pid: np.ndarray, p: int) -> np.ndarray:
    """Per-partition count of consecutive-edge cache-line changes.

    The first edge of each partition counts as a switch (cold line)."""
    lines = ids.astype(np.int64) // 8  # 8 values of 8 bytes per 64 B line
    if lines.size == 0:
        return np.zeros(p, dtype=np.int64)
    switch = np.ones(lines.size, dtype=bool)
    switch[1:] = (lines[1:] != lines[:-1]) | (pid[1:] != pid[:-1])
    return np.bincount(pid[switch], minlength=p).astype(np.int64)


def profile_store(store: GraphStore, *, num_threads: int = 48) -> LayoutProfile:
    """Compute a :class:`LayoutProfile` for ``store`` (one pass, vectorised)."""
    coo = store.coo
    n = np.int64(max(store.num_vertices, 1))
    p = coo.num_partitions
    counts = coo.edges_per_partition()
    pid = np.repeat(np.arange(p, dtype=np.int64), counts)
    dst_keys = sorted_distinct(pid * n + coo.dst.astype(np.int64))
    src_keys = sorted_distinct(pid * n + coo.src.astype(np.int64))
    distinct_dst = np.bincount(dst_keys // n, minlength=p)
    distinct_src = np.bincount(src_keys // n, minlength=p)
    src_switches = _line_switches(coo.src, pid, p)
    dst_switches = _line_switches(coo.dst, pid, p)
    in_deg = store.in_degrees.astype(np.float64)
    total = float(in_deg.sum())
    if total > 0 and num_threads > 1:
        imbalance = chunked_makespan(in_deg, num_threads) / (total / num_threads)
    else:
        imbalance = 1.0
    return LayoutProfile(
        num_vertices=store.num_vertices,
        num_edges=store.num_edges,
        coo_edges=counts.astype(np.int64),
        coo_distinct_src=distinct_src.astype(np.int64),
        coo_distinct_dst=distinct_dst.astype(np.int64),
        pcsr_stored_vertices=distinct_src.astype(np.int64),
        coo_src_line_switches=src_switches,
        coo_dst_line_switches=dst_switches,
        unpartitioned_imbalance=float(imbalance),
    )


class CostModel:
    """Turns :class:`RunStats` into simulated machine time."""

    def __init__(
        self,
        machine: MachineSpec,
        *,
        num_threads: int = 48,
        numa_aware: bool = True,
        params: CostParameters | None = None,
        imbalance_discount: float = 1.0,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if not (0.0 <= imbalance_discount <= 1.0):
            raise ValueError("imbalance_discount must lie in [0, 1]")
        self.machine = machine
        self.num_threads = num_threads
        self.numa_aware = numa_aware
        self.params = params or CostParameters()
        #: scales how much of the degree-skew imbalance the runtime's
        #: scheduler actually suffers: 1.0 = naive contiguous chunking,
        #: lower values model work-stealing / edge-aware balancing
        #: (GraphGrind-v1's contribution).
        self.imbalance_discount = imbalance_discount

    def _effective_imbalance(self, profile: LayoutProfile) -> float:
        # Work stealing bounds how bad contiguous chunking can get in
        # practice; clamp the skew factor accordingly.
        raw = 1.0 + (profile.unpartitioned_imbalance - 1.0) * self.imbalance_discount
        return min(raw, 1.8)

    def _overhead_scale(self, profile: LayoutProfile) -> float:
        """Scale factor applied to fixed overheads (see reference_edges)."""
        return max(profile.num_edges, 1) / self.params.reference_edges

    # ------------------------------------------------------------------
    def _miss_time_ns(self) -> float:
        remote = remote_access_fraction(self.numa_aware, self.machine)
        return self.params.t_mem_ns + remote * self.params.t_remote_ns

    def measured_access_time_ns(self, result, *, write: bool = False) -> float:
        """Memory time of a *measured* cache replay, in nanoseconds.

        Prices a :class:`repro.memsim.cache.CacheResult` — exact
        per-access hit/miss counts from the trace simulator — with this
        model's latency constants, instead of the analytic miss
        probability of :meth:`_random_access_cost`.  Used by the ``memsim``
        CLI to turn simulated miss counts into simulated memory time.
        """
        miss_ns = self._miss_time_ns() * (
            self.params.write_miss_mult if write else 1.0
        )
        return result.misses * miss_ns + result.hits * self.params.t_llc_hit_ns

    def _random_access_cost(
        self,
        accesses: np.ndarray | float,
        ws_bytes: np.ndarray | float,
        cache_bytes: float,
        *,
        write: bool,
    ) -> np.ndarray | float:
        """Cost of ``accesses`` random touches over a working set.

        Cold misses fill the working set once; further accesses miss with
        probability ``p_max / (1 + (cache/ws / x0)^beta)`` — a smooth fit
        to the Che approximation for Zipf-popularity reuse, which keeps
        declining gently even once the working set nominally fits (the
        continued MPKI decline of Figure 8) instead of cliff-dropping to
        zero.  Random writes pay an RFO/write-back surcharge.
        """
        p = self.params
        accesses = np.maximum(np.asarray(accesses, dtype=np.float64), 0.0)
        ws_bytes = np.maximum(np.asarray(ws_bytes, dtype=np.float64), 1.0)
        lines = ws_bytes / self.machine.cache_line_bytes
        cold = np.minimum(accesses, lines)
        ratio = cache_bytes / ws_bytes
        p_cap = np.maximum(
            p.miss_p_max / (1.0 + (ratio / p.miss_x0) ** p.miss_beta), p.miss_p_floor
        )
        capacity = p_cap * np.maximum(accesses - cold, 0.0)
        misses = cold + capacity
        hits = accesses - misses
        miss_ns = self._miss_time_ns() * (p.write_miss_mult if write else 1.0)
        return misses * miss_ns + hits * p.t_llc_hit_ns

    def _cache_share(self, num_partitions: int) -> float:
        """LLC bytes effectively available to one worker thread's accesses.

        Threads co-scheduled on a socket contend for the shared LLC, so
        each access stream competes for roughly ``1/cores`` of it — whether
        the threads share one large partition (low P) or work twelve
        distinct ones (high P).  Contention dominating constructive
        sharing is what makes locality improve *monotonically* with the
        partition count, as the paper observes.
        """
        del num_partitions
        return self.machine.llc_bytes_per_socket / self.machine.cores_per_socket

    def _parallel_span(self, costs: np.ndarray, profile: LayoutProfile) -> float:
        """Makespan of per-partition costs under this runtime's scheduling.

        With at least one partition per thread, partitions are whole tasks
        (greedy LPT).  With fewer partitions than threads, NUMA-aware
        runtimes pin each partition to its home node's threads — so a
        partition with more than its share of edges becomes the critical
        path (Polymer's vertex-balanced imbalance, which GraphGrind-v1's
        edge balancing fixes).  Non-NUMA runtimes split freely across all
        threads, paying only the contiguous-chunking skew factor.
        """
        nparts = int(costs.size)
        if nparts >= self.num_threads:
            return makespan(costs, self.num_threads)
        if self.numa_aware and nparts > 1:
            threads_per_part = max(1, self.num_threads // nparts)
            return float(np.max(costs)) / threads_per_part
        return (
            float(costs.sum()) / self.num_threads * self._effective_imbalance(profile)
        )

    # ------------------------------------------------------------------
    def edge_map_time_ns(
        self, stats: EdgeMapStats, profile: LayoutProfile, *, update_scale: float = 1.0
    ) -> float:
        """Simulated time of one edge-map call, in nanoseconds.

        ``update_scale`` multiplies the per-update compute cost, modelling
        algorithms with heavier edge work (e.g. BP computes per-edge
        message functions where BFS does a single compare-and-claim).
        """
        if stats.layout == "csr":
            return self._time_whole_csr(stats, profile, update_scale)
        if stats.layout == "csc":
            return self._time_ranged_csc(stats, profile, update_scale)
        if stats.layout in ("coo", "pcsr"):
            return self._time_partitioned_forward(stats, profile, update_scale)
        if stats.layout == "grid":
            # Out-of-core streaming: compute prices like the partitioned
            # forward path, I/O streams blocks from the spill device.
            # GridGraph overlaps the two (double buffering), so the phase
            # costs the slower of the two, not their sum.
            compute = self._time_partitioned_forward(stats, profile, update_scale)
            return max(compute, self.grid_io_time_ns(stats.io_bytes, stats.io_blocks))
        raise ValueError(f"unknown layout {stats.layout!r}")

    def grid_io_time_ns(self, io_bytes: int, io_blocks: int) -> float:
        """Simulated disk time of one grid phase's block reads."""
        p = self.params
        return io_blocks * p.t_io_seek_ns + io_bytes / p.io_bytes_per_ns

    def _time_whole_csr(
        self, stats: EdgeMapStats, profile: LayoutProfile, update_scale: float = 1.0
    ) -> float:
        p = self.params
        work = (
            stats.examined_edges * p.t_edge_ns
            + stats.active_edges * p.t_update_ns * update_scale
            + stats.scanned_vertices * p.t_vertex_ns
        )
        if stats.uses_atomics:
            work += stats.active_edges * p.t_atomic_ns
        ws = max(stats.updated_vertices, 1) * p.bytes_per_vertex_state
        work += float(
            self._random_access_cost(
                stats.active_edges, ws, self.machine.total_llc_bytes, write=True
            )
        )
        # Sparse traversals are work-stolen at vertex granularity: close to
        # perfectly splittable, with a mild skew factor for ragged degrees.
        span = work / self.num_threads * min(self._effective_imbalance(profile), 1.5)
        return span + p.t_barrier_ns * self._overhead_scale(profile)

    def _time_ranged_csc(
        self, stats: EdgeMapStats, profile: LayoutProfile, update_scale: float = 1.0
    ) -> float:
        p = self.params
        nparts = max(stats.num_partitions, 1)
        if stats.partition_examined is not None:
            examined = stats.partition_examined.astype(np.float64)
        else:
            examined = np.full(nparts, stats.examined_edges / nparts)
        total_ex = max(float(examined.sum()), 1.0)
        active = stats.active_edges * examined / total_ex
        scanned = stats.scanned_vertices * examined / total_ex
        costs = (
            examined * p.t_edge_ns
            + active * p.t_update_ns * update_scale
            + scanned * p.t_vertex_ns
        )
        # Backward traversal randomly reads *source* attributes; the
        # working set is the active sources of the whole graph and is NOT
        # confined by partitioning (§II.C) — locality is flat in P.
        ws_src = max(stats.frontier_size, 1) * p.bytes_per_vertex_state
        cache = self.machine.llc_bytes_per_socket / self.machine.cores_per_socket
        costs = costs + self._random_access_cost(active, ws_src, cache, write=False)
        scale = self._overhead_scale(profile)
        costs = costs + p.t_range_sched_ns * scale
        span = self._parallel_span(costs, profile)
        return span + p.t_barrier_ns * scale

    def _time_partitioned_forward(
        self, stats: EdgeMapStats, profile: LayoutProfile, update_scale: float = 1.0
    ) -> float:
        p = self.params
        nparts = max(stats.num_partitions, 1)
        if stats.partition_examined is not None:
            examined = stats.partition_examined.astype(np.float64)
        else:
            examined = np.full(nparts, stats.examined_edges / nparts)
        total_ex = max(float(examined.sum()), 1.0)
        active = stats.active_edges * examined / total_ex
        costs = examined * p.t_edge_ns + active * p.t_update_ns * update_scale
        if stats.uses_atomics:
            costs = costs + active * p.t_atomic_ns
        # Random writes to next arrays are confined to each partition's
        # destination range — the paper's locality mechanism.
        if stats.partition_touched_vertices is not None:
            touched = stats.partition_touched_vertices.astype(np.float64)
        else:
            touched = np.minimum(active, profile.num_vertices / nparts)
        density = stats.frontier_size / max(profile.num_vertices, 1)
        # Memory traffic of the two per-vertex streams.  The intra-partition
        # edge order controls how often consecutive edges change cache line
        # in each stream (§IV.C): sorting by source batches reads, sorting
        # by destination batches writes, Hilbert keeps the *sum* of line
        # switches minimal — only switches pay the random-access cost, so
        # the order ranking falls out of the measured switch counts.
        # The source-side switches also grow with the replication factor
        # (§II.F), supplying the high-partition-count work increase.
        if stats.layout == "coo" and profile.coo_dst_line_switches.size == nparts:
            edges_per = np.maximum(profile.coo_edges, 1).astype(np.float64)
            sw_dst = profile.coo_dst_line_switches / edges_per
            sw_src = profile.coo_src_line_switches / edges_per * density
            # Destination writes: capacity-model pricing over the
            # partition's destination working set (shrinks with P — the
            # paper's locality mechanism).
            ws = np.maximum(touched, 1.0) * p.bytes_per_vertex_state
            costs = costs + self._random_access_cost(
                active * sw_dst, ws, self._cache_share(nparts), write=True
            )
            # Source reads: each line switch is a first touch of that line
            # within the partition; flat per-switch price (calibrated to
            # the write side's steady-state cost).  Grows with the
            # replication factor (§II.F) and with destination-sorted
            # orders that scatter sources.
            costs = costs + active * sw_src * p.t_src_touch_ns
        else:
            ws = np.maximum(touched, 1.0) * p.bytes_per_vertex_state
            costs = costs + self._random_access_cost(
                active, ws, self._cache_share(nparts), write=True
            )
        if stats.layout == "pcsr" and profile.pcsr_stored_vertices.size == nparts:
            stored = profile.pcsr_stored_vertices.astype(np.float64)
            total_stored = max(float(stored.sum()), 1.0)
            # Slot-scan work as the engine actually performed it: dense
            # rounds visit every stored slot (§II.F work inflation), sparse
            # rounds only pay per-partition lookups.
            scan_frac = min(stats.scanned_vertices / total_stored, 1.0)
            costs = (
                costs
                + stored * scan_frac * p.t_vertex_ns
                + stored * density * p.t_src_touch_ns
            )
        elif stats.scanned_vertices:
            costs = costs + stats.scanned_vertices / nparts * p.t_vertex_ns
        scale = self._overhead_scale(profile)
        costs = costs + p.t_sched_ns * scale
        span = self._parallel_span(costs, profile)
        return span + p.t_barrier_ns * scale

    # ------------------------------------------------------------------
    def vertex_map_time_ns(
        self, frontier_size: int, *, overhead_scale: float = 1.0
    ) -> float:
        """Simulated time of one vertex-map call."""
        work = frontier_size * self.params.t_vertex_ns
        return work / self.num_threads + self.params.t_barrier_ns / 2.0 * overhead_scale

    def run_time_seconds(
        self, run: RunStats, profile: LayoutProfile, *, update_scale: float = 1.0
    ) -> float:
        """Simulated wall-clock of a whole algorithm run, in seconds."""
        total_ns = sum(
            self.edge_map_time_ns(s, profile, update_scale=update_scale)
            for s in run.edge_maps
        )
        scale = self._overhead_scale(profile)
        total_ns += sum(
            self.vertex_map_time_ns(v.frontier_size, overhead_scale=scale)
            for v in run.vertex_maps
        )
        return total_ns * 1e-9
