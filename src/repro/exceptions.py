"""Exception hierarchy for the ``repro`` package.

All library-raised errors derive from :class:`ReproError` so that callers can
catch every failure mode of the framework with a single ``except`` clause
while still being able to distinguish specific conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class DistributionError(ReproError):
    """Raised when an uncertain-data distribution is misconfigured.

    Examples: a negative standard deviation, mixture weights that do not sum
    to one, or a covariance matrix that is not positive semi-definite.
    """


class EmptySampleError(DistributionError):
    """Raised when an empirical distribution is built from zero samples."""


class UDFError(ReproError):
    """Raised when a user-defined function cannot be evaluated.

    This covers both malformed UDF registrations (wrong dimensionality,
    non-scalar output) and failures raised by the black-box code itself.
    """


class TransientUDFError(UDFError):
    """A UDF evaluation failed in a way that is expected to be retryable.

    Models the failure modes of a remote UDF service — timeouts, dropped
    connections, 5xx responses.  The retry machinery
    (:class:`~repro.udf.retry.RetryPolicy`) re-issues the *same* evaluation
    up to its attempt cap; because the retried call is deterministic (same
    input point, same UDF), a successful retry yields a value bit-identical
    to the one a fault-free run would have produced.
    """


class FatalUDFError(UDFError):
    """A UDF evaluation failed in a way that retrying cannot fix.

    Models permanent failures — malformed input the service rejects,
    authorisation errors, a bug in the black-box code.  The retry machinery
    never re-issues a fatal failure: it propagates immediately (or
    quarantines the tuple when the active
    :class:`~repro.udf.retry.RetryPolicy` enables quarantine).
    """


class GPError(ReproError):
    """Raised for Gaussian-process failures (singular kernel matrix, etc.)."""


class NotTrainedError(GPError):
    """Raised when inference is requested from a GP with no training data."""


class AccuracyError(ReproError):
    """Raised for invalid accuracy specifications.

    Examples: ``epsilon`` outside ``(0, 1)``, ``delta`` outside ``(0, 1)``, or
    an error-budget split that does not sum to the total budget.
    """


class IndexError_(ReproError):
    """Raised for spatial-index (R-tree) misuse.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class SchemaError(ReproError):
    """Raised by the query-engine substrate for schema violations."""


class QueryError(ReproError):
    """Raised when a logical query plan is malformed or cannot be executed."""


class TransportDrainTimeoutError(QueryError):
    """Raised when a transport's drain exceeded its deadline.

    Wraps the raw :class:`concurrent.futures.TimeoutError` that would
    otherwise escape :meth:`~repro.engine.transport.EvaluationTransport.drain`
    untyped; the message names the transport and the elapsed deadline in
    seconds.  The transport's pool is still torn down on this path — the
    timeout abandons the stuck evaluations, it does not leak their threads.
    """


class ShardFailureError(QueryError):
    """Raised when a parallel shard failed after exhausting recovery.

    The message carries everything needed to reproduce the failed shard in
    isolation: the shard index, the tuple range it covered, the executor's
    base seed, and the shard's ``spawn_keyed`` key (which equals the shard
    index).  Re-running just that shard with the same key replays the same
    per-shard random stream, so the failure is reproducible from the
    message alone.
    """


class PlanError(QueryError):
    """Raised when an :class:`~repro.engine.plan.ExecutionPlan` is invalid.

    Covers contradictory knob combinations (e.g. a shared merge with nothing
    to share across, a serial transport with an overlap window) and values
    outside their domain (non-positive or non-integral counts).
    The message always states the violated rule — and, for conflicts, the
    documented knob precedence — so the caller is never left guessing which
    path the engine would have silently picked.  Subclasses
    :class:`QueryError`, so existing error handling keeps working.
    """


class ServiceError(QueryError):
    """Raised for misuse of the serving layer itself.

    Covers lifecycle violations of
    :class:`~repro.engine.service.QueryService` (submitting to a closed
    service, invalid service configuration).  Subclasses
    :class:`QueryError` so a serving deployment can reuse the library's
    existing error handling.
    """


class ServiceOverloadError(ServiceError):
    """Raised when admission control rejects a query.

    The service bounds the number of admitted (queued plus running)
    queries; a submit beyond ``queue_limit`` is rejected *immediately*
    with this error rather than queued without bound — the caller decides
    whether to retry, shed load, or escalate.
    """


class CircuitOpenError(ServiceError):
    """Raised when the per-UDF circuit breaker fast-fails a submission.

    After a UDF's queries fail ``breaker_threshold`` times in a row, the
    service stops admitting new queries against that UDF name for a
    cooldown window instead of burning worker budget on a failing
    dependency.  Once the cooldown elapses, a single half-open probe query
    is admitted: success closes the breaker, failure re-opens it.  The
    message names the tripped UDF and the cooldown.
    """


class QueryCancelledError(ServiceError):
    """Raised by :meth:`~repro.engine.service.QueryHandle.result` after a
    query was cancelled (explicitly, or by service shutdown) before it
    produced its final relation."""


class QueryTimeoutError(ServiceError):
    """Raised when a query exceeded its per-query timeout (server side) or
    a :meth:`~repro.engine.service.QueryHandle.result` wait expired
    (client side) — the message states which deadline was missed."""
