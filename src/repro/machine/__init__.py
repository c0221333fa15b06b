"""Modelled execution machine: spec, NUMA placement, scheduler, cost model."""

from .cost import CostModel, CostParameters, LayoutProfile, profile_store
from .numa import partition_domains, remote_access_fraction, threads_per_socket
from .scheduler import chunked_makespan, lpt_assignment, makespan
from .spec import PAPER_MACHINE, MachineSpec

__all__ = [
    "MachineSpec",
    "PAPER_MACHINE",
    "CostModel",
    "CostParameters",
    "LayoutProfile",
    "profile_store",
    "makespan",
    "lpt_assignment",
    "chunked_makespan",
    "partition_domains",
    "remote_access_fraction",
    "threads_per_socket",
]
