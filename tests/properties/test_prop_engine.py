"""Property-based end-to-end engine tests on random graphs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import VID_DTYPE
from repro.algorithms.cc import CCOp
from repro.algorithms.pagerank import PageRankOp
from repro.core.engine import Engine
from repro.core.options import EngineOptions
from repro.frontier.frontier import Frontier
from repro.layout.store import GraphStore
from tests.properties.test_prop_edgelist import edge_lists
from tests.references import reference_edge_map


@st.composite
def engine_inputs(draw):
    g = draw(edge_lists(max_vertices=25, max_edges=80))
    p = draw(st.integers(min_value=1, max_value=g.num_vertices))
    layout = draw(st.sampled_from([None, "coo", "csc", "pcsr"]))
    ids = draw(st.lists(st.integers(0, g.num_vertices - 1), max_size=g.num_vertices))
    frontier = Frontier(g.num_vertices, sparse=np.array(ids, dtype=np.int32))
    return g, p, layout, frontier


@settings(max_examples=60, deadline=None)
@given(engine_inputs())
def test_pagerank_accumulation_matches_reference(inp):
    """Additive operators commute, so a single round must match the
    per-edge oracle exactly on any graph / partitioning / layout."""
    g, p, layout, frontier = inp
    deg = np.maximum(g.out_degrees().astype(float), 1.0)
    contrib = (np.arange(g.num_vertices) + 1.0) / deg
    ref = np.zeros(g.num_vertices)
    got = np.zeros(g.num_vertices)
    reference_edge_map(g, frontier, PageRankOp(contrib, ref))
    store = GraphStore.build(g, num_partitions=p)
    eng = Engine(store, EngineOptions(num_threads=3, forced_layout=layout))
    nxt = eng.edge_map(frontier, PageRankOp(contrib, got))
    assert np.allclose(ref, got)
    # The next frontier is exactly the destinations that received mass.
    active_src = frontier.as_bitmap()
    expected_dst = {int(d) for s, d in g.to_pairs() if active_src[s]}
    assert set(nxt.as_sparse().tolist()) == expected_dst


@settings(max_examples=40, deadline=None)
@given(engine_inputs())
def test_cc_fixpoint_matches_reference(inp):
    g, p, layout, frontier = inp
    ref = np.arange(g.num_vertices, dtype=VID_DTYPE)
    got = ref.copy()
    f = frontier
    while not f.is_empty:
        f = reference_edge_map(g, f, CCOp(ref))
    store = GraphStore.build(g, num_partitions=p)
    eng = Engine(store, EngineOptions(num_threads=3, forced_layout=layout))
    f = frontier
    while not f.is_empty:
        f = eng.edge_map(f, CCOp(got))
    assert np.array_equal(ref, got)


@settings(max_examples=40, deadline=None)
@given(engine_inputs())
def test_stats_invariants(inp):
    g, p, layout, frontier = inp
    if frontier.is_empty:
        return
    store = GraphStore.build(g, num_partitions=p)
    eng = Engine(store, EngineOptions(num_threads=3, forced_layout=layout))
    labels = np.arange(g.num_vertices, dtype=VID_DTYPE)
    eng.edge_map(frontier, CCOp(labels))
    s = eng.stats.edge_maps[0]
    assert 0 <= s.active_edges <= s.examined_edges <= max(g.num_edges, s.examined_edges)
    assert s.frontier_size == frontier.size
    assert s.updated_vertices <= g.num_vertices
    if s.partition_examined is not None:
        assert s.partition_examined.sum() == s.examined_edges
