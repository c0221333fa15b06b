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
        if message is None:
            gib = 1 << 30
            message = (
                f"{what or 'allocation'} needs "
                f"{(required_bytes or 0) / gib:.1f} GiB but only "
                f"{(available_bytes or 0) / gib:.1f} GiB are available"
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


class NetworkError(ReproError):
    """A transient (simulated) network-level failure of one remote request.

    Raised by the :mod:`repro.resilience.netsim` transport, never by the
    object service itself; the :class:`~repro.resilience.remote.RemoteClient`
    treats every subclass as retryable.
    """


class NetTimeoutError(NetworkError):
    """The request produced no response within the transport timeout.

    Modelled as the request *never reaching* the service, so retrying a
    timed-out mutation cannot double-apply it.
    """


class NetResetError(NetworkError):
    """The connection was reset mid-stream.

    For uploads this is a *torn write*: a damaged prefix (truncated or
    byte-flipped) may have reached the service, to be caught by the
    per-part CRC32 check at complete-multipart time.
    """


class NetThrottleError(NetworkError):
    """The service shed load (an S3-style 503 SlowDown / transient 5xx)."""


class RemoteProtocolError(CheckpointError):
    """The object service rejected a request.

    No such key or upload id, a part failing its declared CRC32, or a
    malformed key — a *definitive* answer from the service, so the
    client does not blindly retry it (unlike :class:`NetworkError`).
    """


class RemoteUnavailableError(CheckpointError):
    """The remote store could not be reached within its failure budget.

    Raised when the circuit breaker is open (fail-fast, no network
    attempt) or when deadline-bounded retries exhausted their budget.
    :class:`~repro.resilience.remote.RemoteStore` degrades on this error
    by spilling the checkpoint to its local write-behind journal instead
    of blocking algorithm progress.
    """


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
    """The parallel execution backend failed beneath the engine.

    A dead worker pool (``BrokenProcessPool``), a shared-memory segment
    that could not be created or attached, a certificate that failed
    re-verification at worker attach time, or operator state that cannot
    cross the process boundary.  Subclasses :class:`WorkerFailure`
    because the failure is recoverable by construction: the workers only
    ever write shared-memory *copies* of the operator state, so the
    engine's in-process arrays are untouched and the batch re-runs in
    process bit-identically.
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
