"""Exception hierarchy for the repro library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphFormatError(ReproError):
    """An edge list or layout is structurally invalid."""


class PartitionError(ReproError):
    """A partitioning request is invalid (e.g. more partitions than edges)."""


class CapacityError(ReproError):
    """A layout does not fit in the modelled machine's memory.

    The paper could evaluate partitioned CSR on Twitter only up to 48
    partitions before exhausting the machine's 256 GiB; this error models
    that wall so benchmarks can report "out of memory" points exactly as
    the paper's figures omit them.

    Carries the structured quantities behind the failure so the
    resilience supervisor and the memory-budget governor can pick a
    degradation rung (halve partitions vs. spill to the on-disk grid)
    without parsing the message: ``required_bytes`` (what the allocation
    needed), ``available_bytes`` (what the machine/budget offers) and
    ``what`` (the layout or structure that did not fit).  All three are
    ``None`` for faults that have no byte accounting (e.g. an injected
    OOM event).
    """

    def __init__(
        self,
        message: str | None = None,
        *,
        required_bytes: int | None = None,
        available_bytes: int | None = None,
        what: str | None = None,
    ) -> None:
        if message is None:  # the byte counts too: under a small budget both sides round alike
            need, have = required_bytes or 0, available_bytes or 0
            message = (
                f"{what or 'allocation'} needs {need / (1 << 30):.3g} GiB ({need:,} B) "
                f"but only {have / (1 << 30):.3g} GiB ({have:,} B) are available"
            )
        super().__init__(message)
        self.required_bytes = required_bytes
        self.available_bytes = available_bytes
        self.what = what

    @property
    def deficit_bytes(self) -> int | None:
        """How many bytes were missing, when both sides are known."""
        if self.required_bytes is None or self.available_bytes is None:
            return None
        return max(self.required_bytes - self.available_bytes, 0)


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its iteration cap."""


class ValidationError(GraphFormatError, ValueError):
    """An input failed the strict validation gate.

    Subclasses :class:`GraphFormatError` so callers that already guard
    loads with the broader type keep working (and :class:`ValueError` so
    argument-checking call sites keep their contract); raised for
    out-of-range or negative vertex ids, NaN/inf weights, truncated
    files, and fault plans naming unknown kinds or out-of-range
    partition ids.
    """


class OperatorContractError(ReproError):
    """An :class:`~repro.core.ops.EdgeOperator` violated the engine's contract.

    Raised when ``cond()`` returns something other than ``None`` or a
    boolean mask parallel to the queried ``dst_ids`` — the silent failure
    mode is fancy-indexing with an integer array, which *selects* instead
    of *filtering* and corrupts the traversal.
    """


class CheckpointError(ReproError):
    """A checkpoint could not be written or read."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed its CRC32 / framing integrity check."""


class GridError(ReproError):
    """An out-of-core grid store operation failed (see :mod:`repro.layout.grid`)."""


class DiskFullError(GridError, CheckpointError):
    """The spill device ran out of space while writing a grid block.

    The preprocessor treats a single occurrence as transient (clean up
    the partial write and retry once — freeing the torn temp file is
    usually enough); a second failure on the same block is terminal.
    """


class TornBlockError(GridError, CheckpointCorruptError):
    """A grid block failed its CRC32 check and could not be repaired.

    Raised only when repair-on-read is impossible: the store has neither
    the in-memory edge list it was built from nor a loadable ``source``
    recorded in the preprocessing manifest.  Deterministic (the bytes on
    disk are wrong), so the supervisor does not retry it.
    """


class WorkerFailure(ReproError):
    """A (simulated) worker died while executing an edge-map or partition task.

    Raised by fault injection; the engine supervisor treats it as
    recoverable and re-executes the phase on the surviving workers.
    """


class BackendError(WorkerFailure):
    """The thread pool could not start a thread for a batch's first block.

    Raised before any task of the batch has run, so the engine runs the
    batch in-process instead and notes the fallback.  Subclasses
    :class:`WorkerFailure` because that is recoverable by construction.
    An exception inside a running block is not wrapped: it is re-raised
    as is, once every block of the batch has finished, exactly as serial
    execution would raise it.
    """


class StallTimeout(WorkerFailure):
    """A partition task overran its watchdog deadline.

    Subclasses :class:`WorkerFailure` so the engine supervisor treats a
    stalled task exactly like a crashed one: its write set is rolled
    back and only that partition is re-executed.
    """


class GridIOError(GridError, WorkerFailure):
    """A (simulated) transient I/O error while reading a grid block.

    Raised when the grid store's bounded in-place re-read loop exhausts
    its attempts.  Subclasses :class:`WorkerFailure` so the engine
    supervisor treats the failed block exactly like a crashed partition
    task: its write set is rolled back and only that block re-executes.
    """


class RetryExhausted(ReproError):
    """The supervisor gave up after its retry budget; the cause is chained."""
