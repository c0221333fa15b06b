"""Comparison systems (Ligra, Polymer, GraphGrind-v1/v2) as configurations."""

from .systems import (
    SYSTEMS,
    SystemConfig,
    build_cost_model,
    build_engine,
    system_names,
)

__all__ = [
    "SystemConfig",
    "SYSTEMS",
    "system_names",
    "build_engine",
    "build_cost_model",
]
