"""The GraphGrind-v2 engine: Ligra-compatible edge/vertex map with Algorithm 2."""

from .backend import ThreadBackend
from .budget import MemoryBudget, parse_memory_budget
from .engine import Engine
from .ops import EdgeOperator
from .options import EngineOptions
from .stats import BackendStats, EdgeMapStats, RunStats, VertexMapStats

__all__ = [
    "Engine",
    "EngineOptions",
    "MemoryBudget",
    "parse_memory_budget",
    "EdgeOperator",
    "EdgeMapStats",
    "VertexMapStats",
    "BackendStats",
    "RunStats",
    "ThreadBackend",
]
