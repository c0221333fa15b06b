"""Registry of the paper's evaluation graphs (Table I) with synthetic stand-ins.

The paper's real datasets are multi-billion-edge crawls that cannot be
bundled (and would not fit a laptop-scale reproduction anyway).  Each
:class:`DatasetSpec` records the *true* Table I metadata — used verbatim by
the closed-form storage/replication figures — and a generator recipe that
produces a structurally matched scaled-down graph for the execution
experiments:

======================  =============================================
paper graph             stand-in recipe
======================  =============================================
Twitter (41.7M/1.467B)  R-MAT, Graph500 skew (heavy-tailed, directed)
Friendster              R-MAT, more vertices, lower edge factor
Orkut (undirected)      R-MAT symmetrised, high edge factor
LiveJournal             R-MAT, medium scale
Yahoo_mem (undirected)  R-MAT symmetrised, small
USAroad (undirected)    2-D lattice with shortcuts (uniform degree,
                        large diameter)
Powerlaw (alpha = 2.0)  Chung–Lu power-law, alpha = 2.0
RMAT27                  R-MAT (the paper's own synthetic)
======================  =============================================

``load(name, scale=1.0)`` returns the stand-in; ``scale`` shrinks or grows
the default size (0.25 for quick tests, >1 for stress runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..errors import ValidationError
from .edgelist import EdgeList
from . import generators as gen

__all__ = ["DatasetSpec", "DATASETS", "load", "names"]


@dataclass(frozen=True)
class DatasetSpec:
    """One Table I row plus the stand-in construction recipe."""

    name: str
    #: Table I values from the paper (true dataset sizes).
    paper_vertices: int
    paper_edges: int
    directed: bool
    description: str
    #: builds the stand-in at a given scale factor.
    builder: Callable[[float], EdgeList]


def _rmat_standin(scale_bits: int, edge_factor: float, seed: int, symmetric: bool):
    def build(scale: float = 1.0) -> EdgeList:
        bits = max(6, scale_bits + round(math.log2(max(scale, 1e-9))))
        g = gen.rmat(bits, edge_factor, seed=seed)
        return g.symmetrized() if symmetric else g

    return build


def _road_standin(side: int, seed: int):
    def build(scale: float = 1.0) -> EdgeList:
        s = max(8, int(side * math.sqrt(max(scale, 1e-9))))
        return gen.road_grid(s, seed=seed)

    return build


def _powerlaw_standin(num_vertices: int, num_edges: int, alpha: float, seed: int):
    def build(scale: float = 1.0) -> EdgeList:
        n = max(64, int(num_vertices * scale))
        m = max(n, int(num_edges * scale))
        return gen.powerlaw(n, m, alpha=alpha, seed=seed)

    return build


DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            "twitter", 41_700_000, 1_467_000_000, True,
            "Twitter follower crawl (Kwak et al.); heavy-tailed, directed",
            _rmat_standin(15, 24.0, seed=11, symmetric=False),
        ),
        DatasetSpec(
            "friendster", 125_000_000, 1_810_000_000, True,
            "Friendster social network; more vertices, flatter degrees",
            _rmat_standin(16, 14.0, seed=13, symmetric=False),
        ),
        DatasetSpec(
            "orkut", 3_070_000, 234_000_000, False,
            "Orkut social network; undirected, very dense",
            _rmat_standin(13, 30.0, seed=17, symmetric=True),
        ),
        DatasetSpec(
            "livejournal", 4_850_000, 69_000_000, True,
            "LiveJournal friendship graph",
            _rmat_standin(14, 12.0, seed=19, symmetric=False),
        ),
        DatasetSpec(
            "yahoo_mem", 1_640_000, 30_400_000, False,
            "Yahoo membership graph; small, undirected",
            _rmat_standin(12, 16.0, seed=23, symmetric=True),
        ),
        DatasetSpec(
            "usaroad", 23_900_000, 58_000_000, False,
            "USA road network; uniform low degree, huge diameter",
            _road_standin(150, seed=29),
        ),
        DatasetSpec(
            "powerlaw", 100_000_000, 1_500_000_000, True,
            "Synthetic power-law graph, alpha = 2.0 (paper's own synthetic)",
            _powerlaw_standin(40_000, 600_000, alpha=2.0, seed=31),
        ),
        DatasetSpec(
            "rmat27", 134_000_000, 1_342_000_000, True,
            "Graph500 R-MAT scale-27 (paper's own synthetic)",
            _rmat_standin(15, 12.0, seed=37, symmetric=False),
        ),
    ]
}


def names() -> list[str]:
    """All dataset names in Table I order."""
    return list(DATASETS)


def load(name: str, scale: float = 1.0) -> EdgeList:
    """Build the stand-in for dataset ``name`` at the given scale factor."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; available: {names()}") from None
    if not scale > 0:
        raise ValidationError(f"dataset scale must be positive, got {scale!r}")
    return spec.builder(scale)
