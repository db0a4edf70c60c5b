"""Deterministic retry policy for transient UDF failures.

A :class:`RetryPolicy` describes how the engine responds when a black-box
evaluation raises :class:`~repro.exceptions.TransientUDFError`: how many
times the *same* point is re-issued, how long to back off between attempts,
how many retries the whole computation may spend, and whether a tuple whose
evaluations remain failing is quarantined (surfaced as a *degraded* result
carrying the last bound the online algorithm had) instead of aborting the
query.

Determinism contract
--------------------
Nothing in this module consumes the Monte-Carlo random stream or the wall
clock for *decisions*: the backoff delay is a pure function of the attempt
number (exponential doubling from ``backoff_base``, capped at
``backoff_cap``), and a retried evaluation re-issues the identical input
point.  Because UDF evaluation is deterministic in its input, a run that
recovers via retries is bit-identical to the fault-free run with the same
seed — the property the ``fault_injection`` smoke entry enforces in CI.

The policy rides on :class:`~repro.engine.plan.ExecutionPlan` (the
``retry=`` knob) and is installed on the UDF for the duration of one
computation by the engine; pickled worker copies inherit it, so the
process-pool, thread-pool, and asyncio paths all retry identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import UDFError


@dataclass(frozen=True)
class RetryPolicy:
    """How transient UDF failures are retried, budgeted, and quarantined.

    Parameters
    ----------
    max_attempts:
        Total attempts per evaluation point, including the first (so
        ``max_attempts=3`` allows two retries).  Must be at least 1.
    backoff_base:
        Delay in seconds before the first retry; each further retry doubles
        it.  ``0.0`` (the default) retries immediately — appropriate for
        the simulated-fault harness, where the "outage" is injected rather
        than real.
    backoff_cap:
        Upper bound in seconds on any single backoff delay.
    retry_budget:
        Total retries one computation may spend across *all* points, or
        ``None`` for no cross-point bound.  A exhausted budget turns the
        next transient failure terminal even when ``max_attempts`` would
        allow another attempt — the lever that keeps a widespread outage
        from multiplying the query's cost by ``max_attempts``.
    quarantine:
        When ``True`` (the default), a tuple whose evaluation still fails
        after retries is *quarantined*: the query continues, and the tuple
        surfaces in the result as a ``degraded`` verdict carrying the last
        error bound the online algorithm had.  ``False`` restores the
        pre-policy behaviour of failing the whole query.
    shard_attempts:
        Total attempts per parallel shard when a pool worker dies
        (``BrokenProcessPool``), including the first.  Shard re-execution
        replays the same ``spawn_keyed`` stream, so a recovered shard is
        bit-identical to one that never crashed.
    """

    max_attempts: int = 3
    backoff_base: float = 0.0
    backoff_cap: float = 1.0
    retry_budget: Optional[int] = None
    quarantine: bool = True
    shard_attempts: int = 2

    def __post_init__(self) -> None:
        """Validate every field; raises :class:`UDFError` on bad values."""
        if self.max_attempts < 1:
            raise UDFError(
                f"retry max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0:
            raise UDFError("retry backoff_base must be non-negative")
        if self.backoff_cap < 0:
            raise UDFError("retry backoff_cap must be non-negative")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise UDFError("retry_budget must be non-negative (or None)")
        if self.shard_attempts < 1:
            raise UDFError(
                f"retry shard_attempts must be at least 1, got {self.shard_attempts}"
            )

    def delay_for(self, failure_count: int) -> float:
        """Backoff delay in seconds after the ``failure_count``-th failure.

        Deterministic capped exponential: ``backoff_base * 2**(n-1)``,
        clipped to ``backoff_cap``.  No jitter — two runs with the same
        failure schedule sleep the same delays.
        """
        if failure_count < 1:
            raise UDFError("failure_count starts at 1 (the first failure)")
        if self.backoff_base == 0.0:
            return 0.0
        return float(min(self.backoff_cap, self.backoff_base * 2.0 ** (failure_count - 1)))


def quarantine_enabled(udf) -> bool:
    """Whether the retry policy installed on ``udf`` quarantines failures."""
    policy = getattr(udf, "_retry_policy", None)
    return policy is not None and bool(policy.quarantine)
