"""Engine configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..errors import ValidationError
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
        paper's partitioned execution exploits — and the test suite's
        lattice harness checks that insensitivity bit-for-bit.
    partition_order_seed:
        Seed of the ``"shuffle"`` permutation.
    backend:
        Execution backend spec (grammar: :mod:`repro.spec`; options:
        :data:`repro.core.backend.BACKEND_SPEC`): ``"serial"``
        (default — the in-process reference path) or
        ``"threads[:workers=N][:strict=0|1]"`` — the same task
        loop in contiguous blocks on a persistent thread pool, each block
        writing its disjoint destination ranges of the live arrays in
        place, for operators declared edge-local; results and statistics
        bit-identical to serial.  ``process`` is accepted as an old name
        for ``threads`` (a shim for the ``benchmarks/e2e`` harness,
        deleted with its next change).  Ill-formed specs raise
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
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValidationError("num_threads must be >= 1")
        if self.forced_layout is not None and self.forced_layout not in FORCEABLE_LAYOUTS:
            raise ValidationError(
                f"forced_layout must be one of {FORCEABLE_LAYOUTS} or None, "
                f"got {self.forced_layout!r}"
            )
        if self.sparse_layout not in ("csr", "pcsr"):
            raise ValidationError(f"sparse_layout must be csr or pcsr, got {self.sparse_layout!r}")
        if self.partition_order not in PARTITION_ORDERS:
            raise ValidationError(
                f"partition_order must be one of {PARTITION_ORDERS}, "
                f"got {self.partition_order!r}"
            )
        from .backend import backend_options

        if self.backend is None:
            object.__setattr__(self, "backend", _default_backend())
        # Typed validation of the spec (raises ValidationError, a
        # ValueError subclass, keeping this constructor's contract).
        backend_options(self.backend)
