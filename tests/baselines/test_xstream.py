"""X-Stream's cost model over an engine run's phase counts."""

from benchmarks.xstream_model import XStreamCosts, xstream_seconds
from repro.algorithms import pagerank


def test_cost_dominated_by_shuffle(engine):
    r = pagerank(engine, iterations=10)
    cheap = xstream_seconds(r.stats, 8, XStreamCosts(t_shuffle_ns=0.0))
    real = xstream_seconds(r.stats, 8)
    assert real > 2 * cheap  # the shuffle is the dominant cost (§I)
