"""Stall-detecting watchdog with a deterministic escalation ladder.

A hung partition task is a failure mode retries keyed on *exceptions*
never see: nothing is raised, the phase simply stops making progress.
The watchdog closes that gap by giving every partition task a deadline
derived from the cost model's predicted partition time (edges ×
(``t_edge_ns`` + ``t_update_ns``) + ``t_sched_ns``, times a ``grace``
slack factor) and escalating when a task overruns it:

1. **retry** — the first overrun raises
   :class:`~repro.errors.StallTimeout` (a
   :class:`~repro.errors.WorkerFailure`), so the supervisor rolls back
   and re-executes *only that partition* via the phase journal;
2. **requeue** — a repeat offender is additionally moved to a different
   scheduler slot (:func:`~repro.machine.scheduler.reassign_slot`, the
   LPT re-queue of the machine model) before the retry, modelling a
   slow/poisoned worker rather than a transient hiccup;
3. **degrade** — a partition that keeps stalling raises
   :class:`~repro.errors.CapacityError`, handing control to the
   supervisor's degradation ladder (halve the partition count and
   rebuild the layouts).

Time is fully *simulated*: the observed elapsed time equals the
prediction unless a ``stall`` fault event injects an overrun, so runs
stay bit-reproducible and graphlint GL005 (no wall-clock in decision
paths) holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from ..machine.cost import CostParameters

__all__ = ["Watchdog", "ESCALATION_LADDER"]

#: The escalation actions in order of severity.
ESCALATION_LADDER = ("retry", "requeue", "degrade")


@dataclass
class Watchdog:
    """Per-partition deadline enforcement over simulated time.

    Attributes
    ----------
    params:
        :class:`~repro.machine.cost.CostParameters` the deadline derives
        from (defaults to the calibrated constants).
    grace:
        Slack multiplier over the predicted partition time; a task is
        stalled when its elapsed time exceeds ``grace × predicted``.
    requeue_after, degrade_after:
        Overrun counts (per partition) at which escalation moves from
        plain retry to scheduler requeue, and from requeue to partition
        degradation.
    """

    params: CostParameters = field(default_factory=CostParameters)
    grace: float = 2.0
    requeue_after: int = 2
    degrade_after: int = 3

    def __post_init__(self) -> None:
        if self.grace <= 0:
            raise ValidationError("grace must be > 0")
        if not (1 <= self.requeue_after < self.degrade_after):
            raise ValidationError("need 1 <= requeue_after < degrade_after")
        #: per-task overrun counts driving the escalation ladder, keyed
        #: by partition id (compute) or ``("io", block)`` (grid reads).
        self.overruns: dict[object, int] = {}
        #: human-readable overrun/escalation history.
        self.log: list[str] = []

    # ------------------------------------------------------------------
    def predicted_ns(self, num_edges: int) -> float:
        """Cost-model prediction of one partition task's time."""
        p = self.params
        return num_edges * (p.t_edge_ns + p.t_update_ns) + p.t_sched_ns

    def deadline_ns(self, num_edges: int) -> float:
        """The task's deadline: prediction times the grace factor."""
        return self.grace * self.predicted_ns(num_edges)

    # ------------------------------------------------------------------
    def observe(self, partition: int, num_edges: int, elapsed_ns: float) -> str | None:
        """Check one task's (simulated) elapsed time against its deadline.

        Returns ``None`` when the task met its deadline, else the next
        rung of :data:`ESCALATION_LADDER` for this partition.
        """
        return self._escalate(
            partition, f"partition {partition}",
            elapsed_ns, self.deadline_ns(num_edges),
        )

    # ------------------------------------------------------------------
    def predicted_io_ns(self, num_bytes: int) -> float:
        """Cost-model prediction of one grid block read (seek + transfer)."""
        p = self.params
        return p.t_io_seek_ns + num_bytes / p.io_bytes_per_ns

    def io_deadline_ns(self, num_bytes: int) -> float:
        """A block read's deadline: prediction times the grace factor."""
        return self.grace * self.predicted_io_ns(num_bytes)

    def observe_io(self, block: object, num_bytes: int, elapsed_ns: float) -> str | None:
        """Check one grid block read against its I/O deadline.

        Shares the escalation ladder with partition tasks but keys
        overruns by ``("io", block)``, so a persistently slow spill
        device escalates independently of compute stalls.
        """
        return self._escalate(
            ("io", block), f"block {block} read",
            elapsed_ns, self.io_deadline_ns(num_bytes),
        )

    def _escalate(
        self, key: object, label: str, elapsed_ns: float, deadline: float
    ) -> str | None:
        if elapsed_ns <= deadline:
            return None
        count = self.overruns.get(key, 0) + 1
        self.overruns[key] = count
        if count >= self.degrade_after:
            action = "degrade"
        elif count >= self.requeue_after:
            action = "requeue"
        else:
            action = "retry"
        self.log.append(
            f"{label} overran deadline "
            f"({elapsed_ns:.0f} ns > {deadline:.0f} ns, overrun {count}): {action}"
        )
        return action

    def reset(self) -> None:
        """Forget overrun history (partition ids changed after degrading)."""
        self.overruns.clear()
