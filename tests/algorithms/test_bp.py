"""Belief propagation: framework BP behaviour plus exact-BP oracles."""

import numpy as np
import pytest

from repro.algorithms.bp import belief_propagation, default_priors
from repro.core import Engine, EngineOptions
from repro.errors import GraphFormatError
from repro.graph import generators as gen
from repro.graph.edgelist import EdgeList
from repro.layout import GraphStore
from tests.references import bp_exact, enumerate_marginals


def test_default_priors_valid(engine):
    p = default_priors(engine.num_vertices)
    assert np.all((p > 0) & (p < 1))
    assert np.array_equal(p, default_priors(engine.num_vertices))


def test_beliefs_stay_probabilities(engine):
    r = belief_propagation(engine)
    assert np.all((r.beliefs >= 0) & (r.beliefs <= 1))
    assert r.iterations == 10


def test_uniform_priors_symmetric_graph_stay_uniform():
    g = gen.cycle(6).symmetrized()
    eng = Engine(GraphStore.build(g, num_partitions=1))
    priors = np.full(6, 0.5)
    r = belief_propagation(eng, priors)
    assert np.allclose(r.beliefs, 0.5, atol=1e-12)


def test_strong_prior_pulls_neighbours():
    # Path 0-1-2 (symmetric); vertex 0 strongly believes state 1.
    g = gen.path(3).symmetrized()
    eng = Engine(GraphStore.build(g, num_partitions=1))
    priors = np.array([0.95, 0.5, 0.5])
    r = belief_propagation(eng, priors, eps=0.2)
    assert r.beliefs[1] > 0.5
    assert r.beliefs[2] > 0.5
    assert r.beliefs[1] > r.beliefs[2]  # closer vertex pulled harder


def test_tolerance_stops_early(engine):
    r = belief_propagation(engine, iterations=100, tolerance=1e-3)
    assert r.iterations < 100


def test_prior_validation(engine):
    with pytest.raises(ValueError):
        belief_propagation(engine, np.full(engine.num_vertices, 1.0))
    with pytest.raises(ValueError):
        belief_propagation(engine, np.full(engine.num_vertices + 1, 0.5))


def test_deterministic(engine):
    a = belief_propagation(engine)
    b = belief_propagation(engine)
    assert np.array_equal(a.beliefs, b.beliefs)


# ----------------------------------------------------------------------
# exact BP
# ----------------------------------------------------------------------
def test_bp_exact_matches_enumeration_on_tree():
    g = gen.path(6).symmetrized()
    rng = np.random.default_rng(3)
    priors = rng.uniform(0.2, 0.8, 6)
    exact = bp_exact(g, priors, eps=0.15)
    brute = enumerate_marginals(g, priors, eps=0.15)
    assert exact.converged
    assert np.abs(exact.beliefs - brute).max() < 1e-9


def test_bp_exact_matches_enumeration_on_star():
    g = gen.star(5).symmetrized()
    rng = np.random.default_rng(4)
    priors = rng.uniform(0.1, 0.9, 6)
    exact = bp_exact(g, priors, eps=0.25)
    brute = enumerate_marginals(g, priors, eps=0.25)
    assert np.abs(exact.beliefs - brute).max() < 1e-9


def test_bp_exact_close_on_small_loopy_graph():
    g = gen.cycle(5).symmetrized()
    rng = np.random.default_rng(5)
    priors = rng.uniform(0.3, 0.7, 5)
    exact = bp_exact(g, priors, eps=0.1, max_iterations=500)
    brute = enumerate_marginals(g, priors, eps=0.1)
    # Loopy BP is approximate on cycles but close for weak potentials.
    assert np.abs(exact.beliefs - brute).max() < 0.05


def test_bp_exact_requires_symmetric():
    with pytest.raises(GraphFormatError):
        bp_exact(gen.path(4), np.full(4, 0.5))


def test_enumeration_size_cap():
    g = gen.path(25).symmetrized()
    with pytest.raises(ValueError):
        enumerate_marginals(g, np.full(25, 0.5))


def test_framework_bp_direction_agrees_with_exact_on_tree():
    """The framework's belief-product approximation should at least agree
    with exact BP on which side of 0.5 each marginal falls (tree case,
    weak coupling)."""
    g = gen.path(5).symmetrized()
    priors = np.array([0.9, 0.5, 0.5, 0.5, 0.2])
    eng = Engine(GraphStore.build(g, num_partitions=1))
    approx = belief_propagation(eng, priors, eps=0.3, iterations=20)
    exact = bp_exact(g, priors, eps=0.3)
    # Compare only clearly-signed marginals.
    for v in range(5):
        if abs(exact.beliefs[v] - 0.5) > 0.05:
            assert (approx.beliefs[v] - 0.5) * (exact.beliefs[v] - 0.5) > 0
