"""Extension: GraphGrind-v2 vs X-Stream (paper §I / §V claim).

The paper motivates partitioning-by-destination against X-Stream's
partitioning-by-source + shuffle: "While spatial locality is high,
performance is sub-optimal."  §IV.E cites Polymer > X-Stream as
established; with GG-v2 > Polymer (Figure 9) the expected ordering is
GG-v2 < Polymer < X-Stream in execution time for edge-oriented work.

The X-Stream column prices an engine run's phase counts with X-Stream's
cost model (``xstream_model.py``): its scatter–shuffle–gather examines
and activates the same edges per phase as the engine.
"""

from conftest import run_once
from xstream_model import xstream_seconds

from repro.algorithms import pagerank, spmv
from repro.bench import Workbench
from repro.bench.report import render_table
from repro.core import Engine, EngineOptions


def _run(cache):
    bench = Workbench.for_dataset("twitter", scale=0.5, num_threads=48, cache=cache)
    store = bench.cache.store(bench.edges, num_partitions=1)
    rows = []
    for code, algo in (("PR", pagerank), ("SPMV", spmv)):
        gg2 = bench.run_system("gg2", code, default_partitions=384)
        polymer = bench.run_system("polymer", code)
        result = algo(Engine(store, EngineOptions(num_threads=bench.num_threads)))
        rows.append([code, gg2, polymer, xstream_seconds(result.stats, bench.num_threads)])
    return rows


def test_xstream_comparison(benchmark, cache, record):
    rows = run_once(benchmark, _run, cache)
    table = render_table(
        ["algorithm", "GG-v2", "Polymer", "X-Stream"],
        rows,
        title="Extension: execution time [s] vs X-Stream (twitter stand-in)",
    )
    record("ext_xstream", table)
    for code, gg2, polymer, xstream in rows:
        assert gg2 < polymer < xstream, f"{code}: expected GG-v2 < Polymer < X-Stream"
