"""Graph algorithms on the public API.

The paper's eight Table II algorithms (BFS, BC, CC, PR, PRDelta, SPMV,
Bellman-Ford, BP) and the exact-BP oracle.
"""

from .bc import BCResult, betweenness
from .bellman_ford import BellmanFordResult, bellman_ford
from .bfs import BFSResult, bfs
from .bp import BPResult, belief_propagation, default_priors
from .bp_exact import BPExactResult, bp_exact, enumerate_marginals
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
    "bp_exact", "BPExactResult", "enumerate_marginals",
    "ALGORITHMS", "AlgorithmSpec", "get", "default_source",
]
