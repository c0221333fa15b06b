"""Engine configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..frontier.density import DensityThresholds

__all__ = ["EngineOptions", "FORCEABLE_LAYOUTS", "PARTITION_ORDERS"]

#: Layouts the engine can be pinned to (for the Figure 5 layout sweep).
FORCEABLE_LAYOUTS = ("pcsr", "csc", "coo")

#: Orders the partitioned kernels may visit partitions in.
PARTITION_ORDERS = ("forward", "reverse", "shuffle")


def _default_backend() -> str:
    """The backend spec used when none is given.

    Reads ``REPRO_BACKEND`` so CI can run the whole test matrix through
    a different backend (mirroring how ``REPRO_STORE`` selects the
    checkpoint store) without touching every ``EngineOptions`` call
    site.  Resolved per instantiation, so tests can monkeypatch the
    environment.
    """
    return os.environ.get("REPRO_BACKEND", "serial")


@dataclass(frozen=True)
class EngineOptions:
    """Tunable behaviour of :class:`repro.core.engine.Engine`.

    Attributes
    ----------
    thresholds:
        Density thresholds of Algorithm 2.  The default is the paper's
        5 % / 50 %; ``DensityThresholds(sparse=0.05, medium=1.0)``
        degenerates to Ligra's two-way sparse/dense classification.
    num_threads:
        Simulated worker threads.  Determines when atomic operations can
        be elided (COO needs ``P >= num_threads``) and feeds the makespan
        model.
    forced_layout:
        Pin every traversal to one layout (``"pcsr"``, ``"csc"`` or
        ``"coo"``) instead of running Algorithm 2 — used by the layout
        comparison benchmarks.  ``None`` (default) enables the decision
        procedure.
    sparse_layout:
        Layout used for sparse frontiers: ``"csr"`` — the whole-graph CSR
        (a GraphGrind-v2 contribution, §III.A.1, shared with Ligra) — or
        ``"pcsr"`` — the partitioned CSR Polymer and GraphGrind-v1 use for
        everything, which pays a per-partition lookup cost on sparse
        frontiers.
    partition_order:
        Order the CSC/COO/PCSR kernels visit partitions in: ``"forward"``
        (default), ``"reverse"``, or ``"shuffle"`` (a deterministic
        permutation seeded by ``partition_order_seed``).  Correct
        operators must be insensitive to this choice — the freedom the
        paper's partitioned execution exploits — and the shadow sanitizer
        uses it to prove (or refute) that insensitivity bit-for-bit.
    partition_order_seed:
        Seed of the ``"shuffle"`` permutation.
    trust_certificates:
        Let the engine consult the static safety certificates
        (:mod:`repro.analysis.certificate`) and skip the per-batch
        ``validated_cond`` mask guard and the supervised snapshot
        blind-spot check for operators certified *partition-pure*.  The
        certified result is bit-identical to the guarded path; set this
        to ``False`` to force every runtime guard back on (e.g. when
        developing a new operator).  The process backend honours it too:
        untrusted operators run ``validated_cond`` inside the workers.
    backend:
        Execution backend spec (grammar: :mod:`repro.spec`; options:
        :data:`repro.core.backend.BACKEND_SPEC`): ``"serial[:prefetch=N]"``
        (default — the in-process reference path) or
        ``"process[:workers=N][:strict=0|1][:start=fork|spawn][:prefetch=N]"``
        — a persistent worker pool over shared-memory arrays running the
        partitioned kernels' disjoint partition slices concurrently,
        with result arrays bit-identical to serial.  Ill-formed specs raise
        :class:`~repro.errors.ValidationError` here.  ``None`` (the
        default) resolves here to the ``REPRO_BACKEND`` environment
        variable when set, else ``"serial"``.
    """

    thresholds: DensityThresholds = field(default_factory=DensityThresholds)
    num_threads: int = 48
    forced_layout: str | None = None
    sparse_layout: str = "csr"
    partition_order: str = "forward"
    partition_order_seed: int = 0
    trust_certificates: bool = True
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if self.forced_layout is not None and self.forced_layout not in FORCEABLE_LAYOUTS:
            raise ValueError(
                f"forced_layout must be one of {FORCEABLE_LAYOUTS} or None, "
                f"got {self.forced_layout!r}"
            )
        if self.sparse_layout not in ("csr", "pcsr"):
            raise ValueError(
                f"sparse_layout must be 'csr' or 'pcsr', got {self.sparse_layout!r}"
            )
        if self.partition_order not in PARTITION_ORDERS:
            raise ValueError(
                f"partition_order must be one of {PARTITION_ORDERS}, "
                f"got {self.partition_order!r}"
            )
        from .backend import backend_options

        if self.backend is None:
            object.__setattr__(self, "backend", _default_backend())
        # Typed validation of the spec (raises ValidationError, a
        # ValueError subclass, keeping this constructor's contract).
        backend_options(self.backend)
