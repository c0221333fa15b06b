"""Scheduler / makespan model tests."""

import numpy as np
import pytest

from repro.machine.scheduler import (
    chunked_makespan,
    lpt_assignment,
    makespan,
)


def test_lpt_covers_all_tasks():
    costs = np.array([5.0, 3.0, 8.0, 1.0, 2.0])
    a = lpt_assignment(costs, 2)
    assert a.shape == (5,)
    assert set(a.tolist()) <= {0, 1}


def test_lpt_balances_simple_case():
    costs = np.array([4.0, 3.0, 3.0, 2.0])
    a = lpt_assignment(costs, 2)
    loads = np.bincount(a, weights=costs, minlength=2)
    assert loads.max() == 6.0  # optimal split (4+2, 3+3)


def test_makespan_lower_bounds():
    costs = np.array([10.0, 1.0, 1.0, 1.0])
    m = makespan(costs, 3)
    assert m >= costs.max()
    assert m >= costs.sum() / 3


def test_makespan_splittable():
    costs = np.array([10.0, 2.0])
    assert makespan(costs, 4, splittable=True) == pytest.approx(3.0)


def test_makespan_fewer_tasks_than_threads():
    costs = np.array([7.0, 2.0])
    assert makespan(costs, 8) == 7.0


def test_makespan_empty():
    assert makespan(np.array([]), 4) == 0.0


def test_makespan_single_thread_is_total():
    costs = np.array([1.0, 2.0, 3.0])
    assert makespan(costs, 1) == 6.0


def test_invalid_threads():
    with pytest.raises(ValueError):
        lpt_assignment(np.array([1.0]), 0)


def test_chunked_makespan_uniform():
    w = np.ones(100)
    assert chunked_makespan(w, 4) == pytest.approx(25.0)


def test_chunked_makespan_skewed_head():
    """Hub weights concentrated at low indices inflate the first chunk —
    the §IV.A imbalance of contiguous vertex chunking."""
    w = np.concatenate([np.full(10, 100.0), np.ones(90)])
    m = chunked_makespan(w, 4)
    assert m > (w.sum() / 4) * 2


def test_chunked_makespan_empty():
    assert chunked_makespan(np.array([]), 4) == 0.0


# ----------------------------------------------------------------------
# thread-count validation (ISSUE 1 satellite): splittable=True with
# threads <= 0 used to divide by zero instead of raising
# ----------------------------------------------------------------------
@pytest.mark.parametrize("threads", [0, -1])
def test_makespan_rejects_nonpositive_threads(threads):
    with pytest.raises(ValueError, match="threads"):
        makespan(np.ones(4), threads, splittable=True)
    with pytest.raises(ValueError, match="threads"):
        makespan(np.ones(4), threads)


def test_chunked_makespan_rejects_nonpositive_threads():
    with pytest.raises(ValueError, match="threads"):
        chunked_makespan(np.ones(4), 0)
