"""Partition-to-thread scheduling and makespan computation.

The paper's runtime processes each partition by a single thread (enabling
the atomics elimination) and balances partitions across threads.  The
simulated schedule reproduces that: given per-partition costs, compute the
parallel completion time (makespan) under greedy longest-processing-time
assignment.  When there are fewer partitions than threads the runtime
instead splits partitions across threads (Cilk-style nested parallelism),
at the price of atomics — modelled by :func:`makespan` with
``splittable=True``.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["lpt_assignment", "makespan", "chunked_makespan"]


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError("threads must be >= 1")


def lpt_assignment(costs: np.ndarray, threads: int) -> np.ndarray:
    """Greedy LPT: assign each cost (largest first) to the least-loaded thread.

    Returns the thread id of each task.
    """
    costs = np.asarray(costs, dtype=np.float64)
    _check_threads(threads)
    assignment = np.zeros(costs.size, dtype=np.int64)
    heap = [(0.0, t) for t in range(threads)]
    heapq.heapify(heap)
    for idx in np.argsort(costs)[::-1]:
        load, t = heapq.heappop(heap)
        assignment[idx] = t
        heapq.heappush(heap, (load + float(costs[idx]), t))
    return assignment


def makespan(costs: np.ndarray, threads: int, *, splittable: bool = False) -> float:
    """Parallel completion time of the given task costs on ``threads`` workers.

    ``splittable=True`` models nested parallelism: tasks can be divided
    across idle threads, so the makespan is simply ``total / threads``
    (perfect division, the optimistic Cilk bound).  Otherwise greedy LPT
    assignment is used, lower-bounded by both the average load and the
    largest single task.
    """
    _check_threads(threads)
    costs = np.asarray(costs, dtype=np.float64)
    if costs.size == 0:
        return 0.0
    total = float(costs.sum())
    if splittable:
        return total / threads
    if costs.size <= threads:
        return float(costs.max())
    assignment = lpt_assignment(costs, threads)
    loads = np.bincount(assignment, weights=costs, minlength=threads)
    return float(loads.max())


def chunked_makespan(weights: np.ndarray, threads: int) -> float:
    """Makespan when work is split into ``threads`` *contiguous* chunks.

    Models parallelising an unpartitioned CSR/CSC by dividing the vertex
    range evenly: each thread gets the same number of vertices but the
    *edge* weight of its chunk depends on the degree distribution — the
    imbalance the paper attributes to non-partitioned layouts (§IV.A).
    """
    _check_threads(threads)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0:
        return 0.0
    bounds = np.linspace(0, weights.size, threads + 1).round().astype(np.int64)
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    chunk_loads = prefix[bounds[1:]] - prefix[bounds[:-1]]
    return float(chunk_loads.max())
