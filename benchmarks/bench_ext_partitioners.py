"""Extension: Algorithm 1 vs streaming partitioners (related work §V).

The paper argues heavyweight partitioners cost more than the analytics
they serve and uses a single-pass contiguous cut instead.  This
experiment quantifies the trade-off against the standard streaming
heuristics (LDG, FENNEL): edge-cut quality, balance, and partitioning
wall time.
"""

import time

from conftest import run_once
from streaming_partitioners import (
    assignment_from_ranges,
    edge_cut_fraction,
    fennel_partition,
    ldg_partition,
)

from repro.bench import Workbench
from repro.bench.report import render_table
from repro.partition.by_destination import partition_by_destination


def _run(cache):
    rows = []
    for name in ("twitter", "usaroad"):
        bench = Workbench.for_dataset(name, scale=0.25, cache=cache)
        edges = bench.edges
        for label, make in (
            ("algorithm1", lambda: assignment_from_ranges(
                partition_by_destination(edges, 16))),
            ("ldg", lambda: ldg_partition(edges, 16)),
            ("fennel", lambda: fennel_partition(edges, 16)),
        ):
            t0 = time.perf_counter()
            assignment = make()
            elapsed = time.perf_counter() - t0
            rows.append(
                [
                    name,
                    label,
                    round(edge_cut_fraction(edges, assignment), 4),
                    round(assignment.balance(), 3),
                    round(elapsed, 4),
                ]
            )
    return rows


def test_partitioner_tradeoffs(benchmark, cache, record):
    rows = run_once(benchmark, _run, cache)
    table = render_table(
        ["graph", "partitioner", "edge cut", "balance", "wall time [s]"],
        rows,
        title="Extension: Algorithm 1 vs streaming partitioners (16 partitions)",
    )
    record("ext_partitioners", table)

    by_key = {(r[0], r[1]): r for r in rows}
    for graph in ("twitter", "usaroad"):
        a1 = by_key[(graph, "algorithm1")]
        ldg = by_key[(graph, "ldg")]
        # Algorithm 1 is at least an order of magnitude faster to compute
        # (the paper's §V argument for avoiding partitioner machinery).
        assert a1[4] < ldg[4] / 10
        # The streaming heuristics buy a lower or comparable edge cut.
        assert ldg[2] < a1[2] + 0.15
