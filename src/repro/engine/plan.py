"""ExecutionPlan: one validated description of *how* a query executes.

The engine runs one loop — the OLGAPRO tuple-commit loop around the
refinement-window loop (:mod:`repro.core.olgapro`) — through one chunk
executor (:class:`~repro.engine.batch.BatchExecutor`) with two optional
stages, a refinement *window* (:mod:`repro.engine.async_exec`) and a
cross-tuple *lookahead* (:mod:`repro.engine.pipeline`), and one shard
wrapper (:class:`~repro.engine.parallel.ParallelExecutor`).
:class:`ExecutionPlan` is the only carrier of their knobs, from the caller
down to the shard worker: one frozen dataclass, validated on construction
(:class:`~repro.exceptions.PlanError` with the violated rule — and the
precedence — in the message), resolved by :meth:`ExecutionPlan.resolve`.
Every executor is constructed as ``Executor(engine, plan)``, so
``__post_init__`` is the only validator and ``resolve`` the only selector.

Knob precedence (outermost first)
---------------------------------
The knobs *compose* rather than compete:

1. ``workers`` — process-pool sharding; everything below applies per shard
   (the shard runs :meth:`ExecutionPlan.inner`).
2. ``pipeline_lookahead`` — cross-tuple speculation around the commit loop;
   1 (or unset) attaches no stage.
3. ``async_inflight`` — the refinement window, carried by the configured
   ``transport``; 1 (or unset without a lookahead) evaluates inline.
4. ``batch_size`` — set-at-a-time chunking (the default size underneath any
   other chunk knob).
5. none of the above — the per-tuple plan: the same chunk executor at a
   chunk size of one.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Any, Iterator, Optional, Union

from repro.engine.async_exec import DEFAULT_ASYNC_INFLIGHT
from repro.engine.batch import DEFAULT_BATCH_SIZE, BatchExecutor
from repro.engine.parallel import MERGE_POLICIES, MergePolicy, ParallelExecutor
from repro.engine.transport import DEFAULT_TRANSPORT, TRANSPORTS
from repro.exceptions import PlanError
from repro.udf.retry import RetryPolicy

#: One-line statement of the composition order, quoted by every
#: conflict message so the caller sees the rule, not just the rejection.
PRECEDENCE = (
    "knob precedence (outermost first): workers > pipeline_lookahead > "
    "async_inflight > batch_size > per-tuple; outer knobs compose with "
    "inner ones (shards pipeline their tuples, pipelines window their "
    "refinement calls, windows ride the transport, chunks batch the GP work)"
)

#: The executor types a plan can resolve to.
PlannedExecutor = Union[ParallelExecutor, BatchExecutor]

#: The literal string spelling of "let the catalog profile choose the
#: knobs" — accepted wherever a plan is (operators, query builder,
#: Session/engine defaults) and resolved per UDF by :meth:`ExecutionPlan.auto`.
AUTO_PLAN = "auto"

#: What a ``plan=`` argument accepts: a built plan or the ``"auto"`` spelling.
PlanArgument = Union["ExecutionPlan", str]


def is_auto_plan(plan: Any) -> bool:
    """Whether ``plan`` is the ``"auto"`` spelling (rejecting other strings).

    The only string a ``plan=`` argument may carry is :data:`AUTO_PLAN`;
    any other string is a typo'd configuration, rejected here with a
    :class:`~repro.exceptions.PlanError` instead of failing later with an
    attribute error deep inside resolution.
    """
    if isinstance(plan, str):
        if plan != AUTO_PLAN:
            raise PlanError(
                f"unknown plan spelling {plan!r}; the only string plan is "
                f"{AUTO_PLAN!r} (or pass an ExecutionPlan)"
            )
        return True
    return False


@contextmanager
def installed_retry(udf: Any, plan: "ExecutionPlan") -> Iterator[None]:
    """Install ``plan.retry`` on the UDF for the duration of one computation.

    The policy rides the UDF's evaluation chokepoints (and its pickled
    pool-worker copies), which is what makes the per-tuple, chunked and
    sharded paths retry identically; every caller that drives a resolved
    executor wraps the whole computation in this.
    """
    if plan.retry is None:
        yield
        return
    udf._install_retry_policy(plan.retry)
    try:
        yield
    finally:
        udf._install_retry_policy(None)


@dataclass(frozen=True)
class ExecutionPlan:
    """A validated, resolvable description of the execution configuration.

    Construct one and hand it to ``plan=`` on
    :meth:`Query.apply_udf <repro.engine.query.Query.apply_udf>` /
    :meth:`Query.where_udf <repro.engine.query.Query.where_udf>`, the
    :class:`~repro.engine.operators.ApplyUDF` /
    :class:`~repro.engine.operators.SelectUDF` operators, or
    :meth:`UDFExecutionEngine.compute_with_plan
    <repro.engine.executor.UDFExecutionEngine.compute_with_plan>`.
    Validation happens in ``__post_init__`` — an invalid plan cannot be
    constructed, so an invalid configuration can never reach an executor.

    Parameters
    ----------
    batch_size:
        Set-at-a-time chunk size.  ``None`` means chunks of one tuple when
        no other knob is set, and :data:`~repro.engine.batch
        .DEFAULT_BATCH_SIZE` underneath any overlap or shard layer.
    workers:
        Process-pool shard count.  ``None`` disables sharding.
    merge:
        What worker-learned training points do to the parent model
        (``"discard" | "shared"``).  ``"discard"`` (default) throws them
        away: deterministic and invariant to the worker count.
        ``"shared"`` selects the live shared model
        (:mod:`repro.core.shared_model`): workers learn *through* a shared
        store mid-stream instead of relearning per shard, and a pipelined
        plan refreshes its prefetch walks against the live model.
        ``"shared"`` needs ``workers`` or ``pipeline_lookahead``.
    parallel_seed:
        Base seed of the per-shard random streams.  Inert without
        ``workers`` (historically accepted as a defensive default, so it
        does not conflict).
    async_inflight:
        Refinement window: UDF calls in flight — and training points
        absorbed — per bound re-check of the OLGAPRO refinement loop.
        ``1`` is the degenerate value, the paper's Algorithm 5: no
        transport session, no driver — bit-identical to leaving it unset.
        A window > 1 fixes the selection rule to stable top-k by variance
        (the multi-point generalisation of the largest-variance rule); a
        configured ``tuning_strategy`` applies at window 1 only.
    pipeline_lookahead:
        Cross-tuple lookahead of the speculation stage.  ``1`` is the
        degenerate value: no stage, no thread — bit-identical to leaving
        it unset; ``> 1`` with no ``async_inflight`` implies the default
        window (see :attr:`window`).
    transport:
        The carrier of overlapped refinement-window evaluations, by name:
        ``"threads"`` (default, bounded pool; carries any UDF) or
        ``"asyncio"`` (event loop; requires an
        :class:`~repro.udf.base.AsyncUDF` and a window to carry).  A window
        of one opens no carrier, whichever is named.
    retry:
        Fault-tolerance policy (:class:`~repro.udf.retry.RetryPolicy`):
        how transient UDF failures are retried (deterministic capped
        backoff, per-point attempt cap, cross-point budget) and whether
        tuples that stay failing are quarantined as *degraded* results
        instead of aborting the query.  Installed on the UDF for the
        duration of the computation, so the serial, thread-pool, asyncio
        and process-pool paths all inherit it; also caps shard
        re-execution after a dead pool worker (``shard_attempts``).
        ``None`` (the default) keeps the fail-fast behaviour.
    """

    batch_size: Optional[int] = None
    workers: Optional[int] = None
    merge: MergePolicy = "discard"
    parallel_seed: Optional[int] = None
    async_inflight: Optional[int] = None
    pipeline_lookahead: Optional[int] = None
    transport: str = DEFAULT_TRANSPORT
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        """Validate values and cross-knob consistency (raises PlanError)."""
        for knob in ("batch_size", "workers", "async_inflight", "pipeline_lookahead"):
            value = getattr(self, knob)
            if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
                or value < 1
            ):
                raise PlanError(f"{knob} must be a positive integer, got {value!r}")
        if self.merge not in MERGE_POLICIES:
            raise PlanError(
                f"unknown merge policy {self.merge!r}; choose from {MERGE_POLICIES}"
            )
        if not isinstance(self.transport, str) or self.transport not in TRANSPORTS:
            raise PlanError(
                f"unknown transport {self.transport!r}; the carriers are "
                "'threads' (any UDF) and 'asyncio' (an AsyncUDF)"
            )
        if (
            self.merge == "shared"
            and self.workers is None
            and self.pipeline_lookahead is None
        ):
            # Beyond the sharded layer, a lookahead stage uses the live model
            # to keep prefetch walks refreshed (SpeculationStage's
            # shared_refresh); with neither there is nobody to share with.
            raise PlanError(
                "merge='shared' shares what workers (or prefetch walks) learn "
                "through a live model, but the plan has neither; set workers "
                "or pipeline_lookahead (or drop merge) — " + PRECEDENCE
            )
        if self.transport == "asyncio" and (
            self.async_inflight is None and self.pipeline_lookahead is None
        ):
            raise PlanError(
                "transport='asyncio' selects how refinement-window evaluations "
                "are carried, but the plan requests no window; set "
                "async_inflight (or pipeline_lookahead) — " + PRECEDENCE
            )
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise PlanError(
                f"retry must be a repro.udf.retry.RetryPolicy (or None), got "
                f"{type(self.retry).__name__}"
            )

    # -- auto-planning ------------------------------------------------------------
    @classmethod
    def auto(
        cls,
        udf: Any,
        relation_size: Optional[int] = None,
        *,
        catalog: Any = None,
    ) -> "ExecutionPlan":
        """Choose the knobs from the UDF's declared catalog profile.

        The profile-driven planner: instead of hand-tuning ``batch_size``
        / ``transport`` / ``async_inflight`` / ``pipeline_lookahead`` per
        query, the caller declares
        what the UDF *is* (its :class:`~repro.udf.catalog.UDFProfile`)
        and this method picks the spelled-out plan the declaration
        implies.  The result is an ordinary validated
        :class:`ExecutionPlan` — ``plan="auto"`` anywhere a plan is
        accepted routes through here, and the resolved plan is gated
        bit-identical to the same plan written explicitly.

        Knob selection by latency class (see the architecture doc for the
        full table):

        * *neutral* (negligible cost) — the serial batched
          path: ``batch_size`` only (the bit-identity anchor).
        * *moderate* (≥ 1 ms/call) — an overlapped refinement window of
          4, carried by ``"asyncio"`` for an async-capable UDF and
          ``"threads"`` otherwise.
        * *slow* (≥ 10 ms/call) — a window of 8 plus cross-tuple
          pipelining (``pipeline_lookahead=4``).

        ``batch_size`` is the default chunk size capped by
        ``relation_size`` (no point chunking past the input).
        Sharding (``workers``), retries and merge policies are
        never auto-selected — they change resource footprint and failure
        semantics, which stay explicit decisions.

        Parameters
        ----------
        udf:
            A :class:`~repro.udf.base.UDF`, a registered catalog name, or
            a :class:`~repro.udf.catalog.UDFProfile` directly.
        relation_size:
            Best-effort input cardinality (rows the plan will process);
            ``None`` when unknown.
        catalog:
            The :class:`~repro.udf.catalog.UDFCatalog` to consult
            (default: :func:`~repro.udf.catalog.default_catalog`).
        """
        # Lazy import: the catalog lives in the UDF package, which the
        # transport module (imported above) pulls in at import time.
        from repro.udf.catalog import (
            LATENCY_MODERATE,
            LATENCY_SLOW,
            UDFProfile,
            default_catalog,
        )

        if isinstance(udf, UDFProfile):
            profile = udf
        else:
            lookup = catalog if catalog is not None else default_catalog()
            if isinstance(udf, str):
                profile = lookup.profile(udf)
            else:
                profile = lookup.profile_for(udf)

        knobs: dict = {}
        batch = DEFAULT_BATCH_SIZE
        if relation_size is not None and int(relation_size) > 0:
            batch = max(1, min(batch, int(relation_size)))
        knobs["batch_size"] = batch
        latency = profile.latency_class
        window = {LATENCY_SLOW: 8, LATENCY_MODERATE: 4}.get(latency)
        if window is not None:
            knobs["transport"] = "asyncio" if profile.async_capable else "threads"
            knobs["async_inflight"] = window
            if latency == LATENCY_SLOW and (relation_size is None or int(relation_size) >= 4):
                knobs["pipeline_lookahead"] = 4
        return cls(**knobs)

    # -- resolution ---------------------------------------------------------------
    @property
    def chunk_size(self) -> int:
        """The chunk size executors run at.

        ``batch_size`` when set; otherwise the default size under any other
        chunk or shard knob, and one tuple for the all-default plan.
        """
        if self.batch_size is not None:
            return self.batch_size
        if self.workers is None and self.async_inflight is None and self.pipeline_lookahead is None:
            return 1
        return DEFAULT_BATCH_SIZE

    @property
    def lookahead(self) -> int:
        """Effective cross-tuple lookahead (1: no speculation stage)."""
        return self.pipeline_lookahead or 1

    @property
    def window(self) -> int:
        """Effective refinement window (1: inline evaluation, no transport).

        ``async_inflight`` when set; otherwise a lookahead > 1 implies
        :data:`~repro.engine.async_exec.DEFAULT_ASYNC_INFLIGHT` (prefetching
        needs windows to land in), and everything else the serial loop.
        """
        if self.async_inflight is not None:
            return self.async_inflight
        return DEFAULT_ASYNC_INFLIGHT if self.lookahead > 1 else 1

    def resolve(self, engine: Any) -> PlannedExecutor:
        """The executor this plan describes, bound to ``engine``.

        The single selection point: the shard wrapper when ``workers`` is
        set, and otherwise the chunk executor, which reads
        :attr:`chunk_size`, :attr:`window` and :attr:`lookahead` off the
        plan — at a chunk size of one for the all-default plan.
        """
        if self.workers is not None:
            return ParallelExecutor(engine, self)
        return BatchExecutor(engine, self)

    def inner(self) -> "ExecutionPlan":
        """The plan every shard of a sharded plan runs.

        This plan with its sharding fields cleared — so a shard's lookahead
        stage never refreshes against a shared model — and ``batch_size``
        pinned, so a shard runs the sharded plan's chunk size.
        """
        if self.workers is None:
            raise PlanError("only a sharded plan (workers set) has an inner plan")
        return replace(
            self, workers=None, parallel_seed=None, merge="discard",
            batch_size=self.chunk_size,
        )

    # -- introspection ------------------------------------------------------------
    def describe(self) -> str:
        """Compact human-readable summary (non-default knobs only)."""
        parts = []
        for field in fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                parts.append(f"{field.name}={value!r}")
        return "ExecutionPlan(" + ", ".join(parts) + ")" if parts else "ExecutionPlan()"

    def with_overrides(self, **overrides: Any) -> "ExecutionPlan":
        """A copy with the given knobs replaced (re-validated)."""
        return replace(self, **overrides)
