"""X-Stream's cost model over the engine's own phase counts (paper §I, §V).

X-Stream (Roy et al., SOSP'13) is the paper's closest related work: it
also partitions for locality, but targets *spatial* locality by never
updating vertices in place.  Each iteration scatters every active edge
into an update record ``(destination, value)``, shuffles the records by
destination partition, and gathers them partition by partition.  All
memory access is sequential, but every active edge becomes a record that
is written, shuffled and re-read: the extra work the paper blames for
X-Stream's sub-optimal performance ("the shuffle stage, however,
significantly increases execution time", §I).

The scatter–shuffle–gather pipeline applies the same commutative
per-destination reductions as the engine, so it examines and activates
the same edges per phase and runs the same vertex maps.  Its time is
therefore a price over an :class:`~repro.core.engine.Engine` run's
:class:`~repro.core.stats.RunStats`.  Its one experiment is
``bench_ext_xstream.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stats import RunStats

__all__ = ["XStreamCosts", "xstream_seconds"]


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


def xstream_seconds(
    run: RunStats, num_threads: int, costs: XStreamCosts | None = None
) -> float:
    """Modelled time of ``run`` executed as X-Stream on ``num_threads``.

    Sequential streaming means no random-access term; instead every
    active edge pays the full scatter/shuffle/gather record cost.
    """
    c = costs or XStreamCosts()
    total = 0.0
    for s in run.edge_maps:
        work = s.examined_edges * c.t_edge_ns + s.active_edges * (c.t_update_ns + c.t_shuffle_ns)
        total += work / num_threads + c.t_barrier_ns
    total += sum(
        v.frontier_size * 2.0 / num_threads + c.t_barrier_ns / 2 for v in run.vertex_maps
    )
    return total * 1e-9
