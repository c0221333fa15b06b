"""Breadth-first search (Table II: vertex-oriented).

Ligra-style frontier BFS: each round expands the frontier by one hop,
recording parent and level.  The engine's decision procedure picks the
traversal direction per round — exactly the paper's point that the
programmer no longer chooses forward vs backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._types import NO_VERTEX, VAL_DTYPE, VID_DTYPE
from ..core.engine import Engine
from ..core.ops import EdgeOperator
from ..core.stats import RunStats
from ..frontier.frontier import Frontier

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..resilience.checkpoint import CheckpointSession

__all__ = ["bfs", "BFSResult", "BFSOp"]


class BFSOp(EdgeOperator):
    """Claim unvisited destinations: ``parent[v] = u`` for the first edge in.

    ``combine`` stays ``None``: a first-writer claim is not a commutative
    reduction — it is race-free only because the partitioned layouts give
    each partition a disjoint destination range and the effect pass proves
    the claim writes ``parent[dst]`` alone.
    """

    def __init__(self, parent: np.ndarray) -> None:
        self.parent = parent

    def cond(self, dst_ids: np.ndarray) -> np.ndarray:
        return self.parent[dst_ids] == NO_VERTEX

    def process_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        mask = self.parent[dst] == NO_VERTEX
        if not mask.any():
            return np.empty(0, dtype=VID_DTYPE)
        claimed, first = np.unique(dst[mask], return_index=True)
        self.parent[claimed] = src[mask][first]
        return claimed.astype(VID_DTYPE)


@dataclass(frozen=True)
class BFSResult:
    """BFS tree: ``parent[v]`` (``-1`` unreached, ``source`` for the root),
    ``level[v]`` (``-1`` unreached) and engine statistics."""

    source: int
    parent: np.ndarray
    level: np.ndarray
    rounds: int
    stats: RunStats

    def reached(self) -> np.ndarray:
        """Boolean mask of vertices reachable from the source."""
        return self.level >= 0


def bfs(
    engine: Engine, source: int, *, checkpoint: CheckpointSession | None = None
) -> BFSResult:
    """Run BFS from ``source`` over the engine's graph.

    With a ``checkpoint`` session, the loop state (``parent``, ``level``
    and the frontier's sparse ids) is saved after each completed round
    and (when the session has ``resume=True``) restored from the newest
    valid checkpoint, making a killed run restartable with bit-identical
    results.
    """
    n = engine.num_vertices
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")
    parent = np.full(n, NO_VERTEX, dtype=VID_DTYPE)
    level = np.full(n, -1, dtype=np.int64)
    parent[source] = source
    level[source] = 0
    op = BFSOp(parent)
    frontier = Frontier.of(n, source)
    engine.reset_stats()
    rounds = 0
    if checkpoint is not None:
        rounds, saved = checkpoint.restore()
        if saved is not None:
            # in place: the operator and the result alias both arrays
            parent[...] = saved["parent"]
            level[...] = saved["level"]
            frontier = Frontier(n, sparse=saved["frontier"].astype(VID_DTYPE))
    while not frontier.is_empty:
        frontier = engine.edge_map(frontier, op)
        rounds += 1
        if not frontier.is_empty:
            level[frontier.as_sparse()] = rounds
        if checkpoint is not None:
            checkpoint.save(
                rounds, {"parent": parent, "level": level, "frontier": frontier.as_sparse()}
            )
    return BFSResult(
        source=source,
        parent=parent,
        level=level,
        rounds=rounds,
        stats=engine.reset_stats(),
    )
