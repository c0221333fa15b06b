"""Graph algorithms on the public API.

The paper's eight Table II algorithms (BFS, BC, CC, PR, PRDelta, SPMV,
Bellman-Ford, BP).  The exact-BP oracle that checks BP on trees is test
material: ``bp_exact`` in ``tests/references.py``.
"""

from .bc import BCResult, betweenness
from .bellman_ford import BellmanFordResult, bellman_ford
from .bfs import BFSResult, bfs
from .bp import BPResult, belief_propagation, default_priors
from .cc import CCResult, connected_components
from .pagerank import PageRankResult, pagerank
from .prdelta import PageRankDeltaResult, pagerank_delta
from .registry import ALGORITHMS, AlgorithmSpec, default_source, get
from .spmv import SPMVResult, spmv

__all__ = [
    "bfs", "BFSResult",
    "betweenness", "BCResult",
    "connected_components", "CCResult",
    "pagerank", "PageRankResult",
    "pagerank_delta", "PageRankDeltaResult",
    "spmv", "SPMVResult",
    "bellman_ford", "BellmanFordResult",
    "belief_propagation", "BPResult", "default_priors",
    "ALGORITHMS", "AlgorithmSpec", "get", "default_source",
]
