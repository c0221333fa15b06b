"""Figure 2 / Figure 8 outputs vs the scalar reference implementations.

The vectorised memory simulator must leave the benchmark outputs
*unchanged*: these tests recompute the figures' numbers on a fixed small
graph using only the retained scalar references
(:func:`reference_stack_distances`, :func:`reference_simulate_cache`) and
demand equality with what the drivers report.
"""

import numpy as np
import pytest

from repro.bench.figures import INSTRUCTIONS_PER_EDGE, fig2_reuse_distance, fig8_mpki
from repro.bench.harness import StoreCache
from repro.layout.coo import PartitionedCOO
from repro.machine.spec import MachineSpec
from repro.memsim.cache import llc_config
from repro.memsim.reuse import histogram_of_distances
from repro.memsim.trace import next_array_trace, partition_edge_traces
from repro.partition.by_destination import partition_by_destination
from tests.references import reference_simulate_cache, reference_stack_distances

SCALE = 0.25
MAX_ACCESSES = 30_000


@pytest.fixture(scope="module")
def cache():
    return StoreCache()


def test_fig2_unchanged_vs_scalar_reference(cache):
    partition_counts = (1, 4, 8)
    exp, hists = fig2_reuse_distance(
        dataset="twitter",
        scale=SCALE,
        partition_counts=partition_counts,
        max_accesses=MAX_ACCESSES,
        cache=cache,
    )
    edges = cache.graph("twitter", scale=SCALE)
    for row, p in zip(exp.rows, partition_counts):
        vp = partition_by_destination(edges, p)
        coo = PartitionedCOO.build(edges, vp, edge_order="source")
        trace = next_array_trace(coo)[:MAX_ACCESSES]
        ref = histogram_of_distances(reference_stack_distances(trace))
        assert np.array_equal(hists[p].distances, ref.distances)
        assert np.array_equal(hists[p].counts, ref.counts)
        assert hists[p].cold_accesses == ref.cold_accesses
        assert row == [
            p,
            ref.total_accesses,
            ref.max_distance(),
            ref.percentile(50),
            ref.percentile(90),
            ref.percentile(99),
        ]


def test_fig8_unchanged_vs_scalar_reference(cache):
    partition_counts = (4, 8)
    out = fig8_mpki(
        graphs=("twitter",),
        algorithms=("PR", "BF"),
        partition_counts=partition_counts,
        scale=SCALE,
        cache=cache,
    )
    exp = out["twitter"]
    edges = cache.graph("twitter", scale=SCALE)
    machine = MachineSpec().scaled_for(edges.num_vertices)
    cfg = llc_config(machine, sharing_cores=1)
    for row, p in zip(exp.rows, partition_counts):
        vp = partition_by_destination(edges, min(p, edges.num_vertices))
        coo = PartitionedCOO.build(edges, vp, edge_order="source")
        misses = 0
        accesses = 0
        for tr in partition_edge_traces(coo):
            res = reference_simulate_cache(tr, cfg)
            misses += res.misses
            accesses += res.accesses
        instructions = (accesses // 2) * INSTRUCTIONS_PER_EDGE
        expected = round(misses / max(instructions, 1) * 1000.0, 2)
        # PR and BF share the dense trace: identical MPKI from both the
        # driver (via the content-addressed cache) and the reference.
        assert row == [p, expected, expected]
