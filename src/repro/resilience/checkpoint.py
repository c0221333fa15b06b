"""Iteration-level checkpoint/restore for the iterative algorithms.

:class:`CheckpointManager` is the algorithm-facing policy layer: it owns
the run-name → step keying, fault injection, retention and the
fall-back-to-older-generation logic, and delegates the actual bytes to a
pluggable :class:`~repro.resilience.store.CheckpointStore` backend
(:class:`~repro.resilience.store.LocalDirStore` by default — one framed
``<name>.it<NNNNNNNN>.ckpt`` container per step, preserving the original
on-disk format bit-for-bit; see ``store.py`` for the sharded and
replicated backends and the framing details).

Loads are integrity-verified by the store and raise the typed
:class:`~repro.errors.CheckpointCorruptError` on any unrepairable
mismatch — :meth:`CheckpointManager.load_latest` then falls back to the
newest *valid* generation so a corrupted tail costs one iteration, not
the run.

Only plain data crosses to the algorithms: a loop hands its
:class:`CheckpointSession` (one run name bound to a manager, a save
cadence and a resume flag) a dict of named arrays after each iteration,
and gets ``(step, arrays | None)`` back when it starts.
"""

from __future__ import annotations

import logging
import os
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import CheckpointCorruptError, CheckpointError
from .faults import FaultPlan
from .store import CheckpointStore, LocalDirStore

__all__ = ["CheckpointManager", "CheckpointSession"]

log = logging.getLogger(__name__)


class CheckpointManager:
    """Keyed, fault-injectable checkpoints over a pluggable store.

    Parameters
    ----------
    directory:
        Convenience: builds a :class:`LocalDirStore` there (the original
        single-file format).  Mutually optional with ``store``.
    store:
        An explicit :class:`CheckpointStore` backend; overrides
        ``directory``.
    fault_plan:
        Optional plan whose ``corrupt_checkpoint`` / ``corrupt_shard`` /
        ``lost_replica`` events damage the generation written at that
        step, exercising the integrity/repair paths.
    keep_last:
        Retention: after each save, prune all but the newest N
        generations of that run.  ``None`` (default) keeps everything —
        the historical behaviour.  Note that ``keep_last=1`` removes the
        older generations sharded repair and corrupt-tail fallback
        recover from.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        store: CheckpointStore | None = None,
        fault_plan: FaultPlan | None = None,
        keep_last: int | None = None,
    ) -> None:
        if store is None:
            if directory is None:
                raise ValueError("CheckpointManager needs a directory or a store")
            store = LocalDirStore(directory)
        self.store = store
        #: backing directory when the store has one (``None`` otherwise).
        self.directory = Path(directory) if directory is not None else store.directory
        if keep_last is not None and keep_last < 1:
            raise ValueError("keep_last must be >= 1 (or None for unbounded)")
        self.keep_last = keep_last
        #: optional fault plan whose storage events damage fresh saves.
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    def path_for(self, name: str, step: int) -> Path:
        """The on-disk location of ``(name, step)``, for stores that have one."""
        path = self.store.path_for(name, step)
        if path is None:
            raise CheckpointError(
                f"{self.store.kind} store has no single on-disk path per checkpoint"
            )
        return path

    def steps(self, name: str) -> list[int]:
        """All checkpointed steps for ``name``, ascending."""
        return self.store.steps(name)

    def names(self) -> list[str]:
        """All run names with at least one checkpoint."""
        return self.store.names()

    # ------------------------------------------------------------------
    def save(
        self, name: str, step: int, arrays: Mapping[str, np.ndarray]
    ) -> Path | None:
        """Atomically write one checkpoint; returns its path when one exists.

        After a successful write the fault plan may damage the fresh
        generation (corruption / shard tear / replica loss), and the
        retention policy prunes generations beyond ``keep_last``.
        """
        store, plan = self.store, self.fault_plan
        store.save(name, step, arrays)
        if plan is not None:
            for kind, damage in (
                ("corrupt_checkpoint", store.corrupt),
                ("corrupt_shard", store.corrupt_shard),
                ("lost_replica", store.lose_replica),
            ):
                if plan.take((kind,), step):
                    damage(name, step)
        self.prune(name)
        return store.path_for(name, step)

    def prune(self, name: str, keep_last: int | None = None) -> list[int]:
        """Drop all but the newest ``keep_last`` generations of ``name``.

        Uses the manager's retention when ``keep_last`` is omitted; a
        ``None`` retention prunes nothing.  Returns the removed steps.
        """
        keep = keep_last if keep_last is not None else self.keep_last
        if keep is None:
            return []
        if keep < 1:
            raise ValueError("keep_last must be >= 1")
        doomed = self.steps(name)[:-keep]
        for step in doomed:
            self.store.delete(name, step)
        if doomed:
            log.info("pruned %d old checkpoint(s) of %s", len(doomed), name)
        return doomed

    def verify(self, name: str, step: int) -> bool:
        """Whether generation ``(name, step)`` loads clean."""
        return self.store.verify(name, step)

    # ------------------------------------------------------------------
    def load(self, name: str, step: int) -> dict[str, np.ndarray]:
        """Load and verify one checkpoint; raises on any integrity failure."""
        return self.store.load(name, step)

    def load_latest(
        self, name: str, *, allow_fallback: bool = True
    ) -> tuple[int, dict[str, np.ndarray]] | None:
        """Newest valid checkpoint as ``(step, arrays)``, or ``None``.

        With ``allow_fallback`` (the default) corrupt generations are
        skipped — newest first — with a warning; without it the first
        corruption raises.
        """
        for step in reversed(self.steps(name)):
            try:
                return step, self.load(name, step)
            except CheckpointCorruptError:
                if not allow_fallback:
                    raise
                log.warning(
                    "checkpoint %s step %d is corrupt; falling back", name, step
                )
        return None


class CheckpointSession:
    """One named run's binding of a manager, save cadence and resume flag."""

    def __init__(
        self,
        manager: CheckpointManager,
        name: str,
        *,
        every: int = 1,
        resume: bool = False,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.manager = manager
        self.name = name
        self.every = every
        self.resume = resume

    def restore(self) -> tuple[int, dict[str, np.ndarray] | None]:
        """The newest valid checkpoint as ``(step, arrays)``; ``(0, None)``
        when resume is disabled or none exists (start from scratch)."""
        found = self.manager.load_latest(self.name) if self.resume else None
        if found is None:
            return 0, None
        log.info("resumed %s from iteration %d", self.name, found[0])
        return found

    def save(self, step: int, arrays: Mapping[str, np.ndarray]) -> None:
        """Checkpoint ``arrays`` if ``step`` falls on the save cadence."""
        if step % self.every == 0:
            self.manager.save(self.name, step, arrays)
