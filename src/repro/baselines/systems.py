"""The comparison systems of Figure 9, re-implemented as configurations.

The paper compares GraphGrind-v2 against Ligra, Polymer and
GraphGrind-v1.  All four are frontier-based shared-memory frameworks; what
distinguishes them is *policy*: graph layouts available, partition count,
frontier classification, NUMA placement and load balancing.  Implementing
all four policies over one substrate isolates exactly those variables
(DESIGN.md, substitutions):

=============  =========================================================
Ligra          unpartitioned CSR + CSC, two-way sparse/dense frontier
               classification (dense → backward CSC), no NUMA awareness,
               contiguous vertex chunking for parallel loops
Polymer        Ligra's policy plus 4-way partitioning (one partition per
               NUMA node) and NUMA-aware placement; vertex-balanced
               partitions
GraphGrind-v1  Polymer's policy with edge-aware load balancing (the
               GraphGrind ICS'17 contribution); still CSR/CSC only
GraphGrind-v2  this paper: three-way classification with medium-dense
               frontiers, destination-partitioned COO at an aggressive
               partition count (384), atomics elided when P >= threads
=============  =========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.engine import Engine
from ..core.options import EngineOptions
from ..frontier.density import DensityThresholds
from ..graph.edgelist import EdgeList
from ..layout.store import GraphStore
from ..machine.cost import CostModel, CostParameters
from ..machine.spec import MachineSpec

__all__ = ["SystemConfig", "SYSTEMS", "system_names", "build_engine", "build_cost_model"]


@dataclass(frozen=True)
class SystemConfig:
    """Policy knobs of one comparison system."""

    key: str
    display_name: str
    #: frontier classification thresholds; ``medium = 1.0`` disables the
    #: dense/COO class, degenerating to Ligra's two-way scheme.
    thresholds: DensityThresholds
    #: partition count; ``None`` means "the aggressive default" (384, or
    #: whatever the experiment sweeps).
    num_partitions: int | None
    #: vertex-balanced ("vertices") or edge-balanced ("edges") partitions;
    #: ``None`` defers to the algorithm's orientation (§III.D).
    balance: str | None
    numa_aware: bool
    #: fraction of degree-skew imbalance this runtime suffers (1.0 = naive
    #: contiguous chunking; lower = smarter balancing).
    imbalance_discount: float
    #: layout used for sparse frontiers: whole-graph CSR (Ligra, GG-v2) or
    #: partitioned CSR (Polymer, GG-v1 — everything lives partitioned).
    sparse_layout: str = "csr"


SYSTEMS: dict[str, SystemConfig] = {
    cfg.key: cfg
    for cfg in [
        SystemConfig(
            key="ligra",
            display_name="Ligra (L)",
            thresholds=DensityThresholds(sparse=1 / 20, medium=math.inf),
            num_partitions=1,
            balance="vertices",
            numa_aware=False,
            imbalance_discount=1.0,
        ),
        SystemConfig(
            key="polymer",
            display_name="Polymer (P)",
            thresholds=DensityThresholds(sparse=1 / 20, medium=math.inf),
            num_partitions=4,
            balance="vertices",
            numa_aware=True,
            imbalance_discount=0.8,
            sparse_layout="pcsr",
        ),
        SystemConfig(
            key="gg1",
            display_name="GraphGrind-v1 (GG-v1)",
            thresholds=DensityThresholds(sparse=1 / 20, medium=math.inf),
            num_partitions=4,
            balance=None,
            numa_aware=True,
            imbalance_discount=0.4,
            sparse_layout="pcsr",
        ),
        SystemConfig(
            key="gg2",
            display_name="GraphGrind-v2 (GG-v2)",
            thresholds=DensityThresholds(sparse=1 / 20, medium=1 / 2),
            num_partitions=None,
            balance=None,
            numa_aware=True,
            imbalance_discount=0.4,
        ),
    ]
}


def system_names() -> list[str]:
    """System keys in the paper's L / P / GG-v1 / GG-v2 order."""
    return list(SYSTEMS)


def build_engine(
    config: SystemConfig,
    edges: EdgeList,
    *,
    num_threads: int = 48,
    default_partitions: int = 384,
    algorithm_balance: str = "edges",
    edge_order: str = "source",
    store: GraphStore | None = None,
    resilience=None,
    journal=None,
    backend: str | None = None,
) -> Engine:
    """Construct the engine a system would run ``edges`` with.

    ``algorithm_balance`` is used for systems whose balance criterion
    defers to the algorithm (§III.D).  Pass a pre-built ``store`` to share
    layouts across algorithms (it must match the system's partitioning).
    ``resilience``/``journal`` attach the supervision runtime — the
    baseline configurations run under the same fault-recovery machinery
    as GraphGrind-v2, so the Figure 9 comparison holds under injected
    faults too.  ``backend`` selects the execution backend spec
    (``None`` keeps :class:`EngineOptions`' default, i.e.
    ``$REPRO_BACKEND`` or serial).
    """
    p = config.num_partitions or default_partitions
    p = min(p, max(edges.num_vertices, 1))
    balance = config.balance or algorithm_balance
    if store is None:
        store = GraphStore.build(
            edges, num_partitions=p, balance=balance, edge_order=edge_order
        )
    options = EngineOptions(
        thresholds=config.thresholds,
        num_threads=num_threads,
        sparse_layout=config.sparse_layout,
        backend=backend,
    )
    return Engine(store, options, resilience=resilience, journal=journal)


def build_cost_model(
    config: SystemConfig,
    machine: MachineSpec,
    *,
    num_threads: int = 48,
    params: CostParameters | None = None,
) -> CostModel:
    """Cost model matching a system's NUMA and balancing policy."""
    return CostModel(
        machine,
        num_threads=num_threads,
        numa_aware=config.numa_aware,
        params=params,
        imbalance_discount=config.imbalance_discount,
    )
