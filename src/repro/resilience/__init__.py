"""Resilient execution runtime: checkpoint/restore over pluggable
stores, fault injection, partition-granular recovery via the phase
journal, the stall-detecting watchdog and retry/degradation supervision.
It is a layer over the compute packages: it imports them, they never
import it at module scope (the loaders' ``validate_edgelist`` gate lives
in :mod:`repro.graph.validation` and is re-exported here).

See ``DESIGN.md`` ("Resilience") for the checkpoint/store formats, the
journal record format, the fault-plan schema, the watchdog escalation
ladder and the degradation ladder.
"""

from ..graph.validation import validate_edgelist, validate_weights
from .backoff import BackoffSchedule
from .checkpoint import CheckpointManager, CheckpointSession
from .faults import (
    FAULT_KINDS,
    GRID_WRITE_FAULT_KINDS,
    IO_FAULT_KINDS,
    NET_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
)
from .journal import PartitionRecord, PhaseJournal
from .netsim import NetworkSimulator
from .remote import (
    CircuitBreaker,
    ObjectService,
    RemoteClient,
    RemoteStore,
    SyncOutcome,
)
from .store import (
    STORE_KINDS,
    CheckpointStore,
    LocalDirStore,
    ReplicatedStore,
    ShardedStore,
    make_store,
)
from .supervisor import ResiliencePolicy
from .watchdog import ESCALATION_LADDER, Watchdog

__all__ = [
    "BackoffSchedule",
    "CheckpointManager",
    "CheckpointSession",
    "CheckpointStore",
    "CircuitBreaker",
    "ESCALATION_LADDER",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "GRID_WRITE_FAULT_KINDS",
    "IO_FAULT_KINDS",
    "LocalDirStore",
    "NET_FAULT_KINDS",
    "NetworkSimulator",
    "ObjectService",
    "PartitionRecord",
    "PhaseJournal",
    "RemoteClient",
    "RemoteStore",
    "ReplicatedStore",
    "ResiliencePolicy",
    "STORE_KINDS",
    "ShardedStore",
    "SyncOutcome",
    "Watchdog",
    "make_store",
    "validate_edgelist",
    "validate_weights",
]
