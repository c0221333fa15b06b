"""Property-based tests on whole algorithms over random graphs."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs, pagerank
from repro.core import Engine
from repro.layout import GraphStore
from tests.properties.test_prop_edgelist import edge_lists


@st.composite
def engines(draw):
    g = draw(edge_lists(max_vertices=20, max_edges=60)).symmetrized()
    p = draw(st.integers(min_value=1, max_value=max(g.num_vertices, 1)))
    return g, Engine(GraphStore.build(g, num_partitions=p))


@settings(max_examples=25, deadline=None)
@given(engines())
def test_pagerank_is_a_distribution(ge):
    g, engine = ge
    r = pagerank(engine, iterations=30)
    assert np.all(r.ranks > 0)
    assert abs(r.ranks.sum() - 1.0) < 1e-9


@settings(max_examples=25, deadline=None)
@given(engines(), st.integers(min_value=0, max_value=19))
def test_bfs_levels_match_networkx(ge, src_raw):
    g, engine = ge
    src = src_raw % g.num_vertices
    r = bfs(engine, src)
    G = nx.DiGraph(g.to_pairs())
    G.add_nodes_from(range(g.num_vertices))
    expected = nx.single_source_shortest_path_length(G, src)
    assert all(r.level[v] == d for v, d in expected.items())
    assert int(r.reached().sum()) == len(expected)
