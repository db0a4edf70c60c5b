"""Always-on concurrent query service with anytime results.

The serving layer turns the batch-oriented engine into a long-lived
process: one :class:`QueryService` owns a private asyncio event loop (on a
dedicated thread, exactly like
:class:`~repro.engine.transport.AsyncioTransport` owns its loop) plus a
shared worker pool, and accepts many concurrent queries onto that shared
budget.  Each submitted query runs as one coroutine that pulls its
operator iterator one row at a time through the pool, so

* **admission control** is explicit — at most ``queue_limit`` queries are
  in flight, and the next submission fails fast with a typed
  :class:`~repro.exceptions.ServiceOverloadError` instead of queueing
  unboundedly;
* **fair scheduling** falls out of the FIFO slot semaphore — every
  in-flight query waits its turn for the next row-pull, so a long query
  cannot starve short ones;
* **anytime results** stream as :class:`QueryEvent` records — the
  ``(tuple_id, verdict, bound, version)`` quadruple of
  :class:`~repro.engine.result.TupleVerdict` — the moment OLGAPRO's
  per-tuple bounds settle, before the final bit-identical-to-serial
  :class:`~repro.engine.result.QueryResult` materialises;
* **failure isolation** is typed — ``breaker_threshold`` consecutive
  failed queries naming the same UDF open that UDF's circuit breaker, so
  later submissions fast-fail with
  :class:`~repro.exceptions.CircuitOpenError` (no queue slot, no engine
  work) until a cooldown elapses and a single half-open probe query
  decides whether the black box recovered;
* **cancellation and timeouts** provably release transport resources:
  evaluation transports open and close *inside* each chunk computation
  (the close-on-every-exit-path contract of
  :mod:`repro.engine.transport`), so abandoning a query between row
  pulls leaks neither threads nor event loops, and a chunk already on a
  pool thread simply drains there and closes its own transport.

Determinism contract: a query's rows are pulled strictly sequentially by
its coroutine — concurrency exists only *across* queries — so each query
observes exactly the iteration its operator tree would produce serially.
With a fresh engine per query (what :class:`~repro.engine.session.Session`
constructs) the served result is bit-identical to running the same query
on the same seed directly.

The opt-in ``share_models=True`` routes every query's per-UDF emulators
through the region's live
:class:`~repro.core.shared_model.SharedEmulatorStore` (keyed by
``(udf name, region)``): each query publishes its paid-for training rows
as it evaluates and cold processors seed from the store, so *concurrent*
same-region queries all warm-start — there is no loaned object to race
for (the pre-store loan cache served one in-flight query per trained
emulator; a concurrent loser retrained cold).  Warm-started emulators
skip retraining but make results depend on service history, which is why
sharing is off by default.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import threading
import time
from concurrent.futures import Future as ConcurrentFuture
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.core.shared_model import SharedEmulatorStore
from repro.engine.result import QueryResult, TupleVerdict, classify_row
from repro.engine.tuples import Relation
from repro.exceptions import (
    CircuitOpenError,
    QueryCancelledError,
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadError,
)
from repro.timing import PhaseTimings

if TYPE_CHECKING:  # avoid runtime cycles with the executor/query layers
    from repro.engine.executor import UDFExecutionEngine
    from repro.engine.plan import ExecutionPlan
    from repro.engine.query import Query
    from repro.udf.base import UDF

#: Default number of row-evaluation workers shared by all in-flight queries.
DEFAULT_WORKER_BUDGET = 4
#: Default admission limit: queries in flight before submit() rejects.
DEFAULT_QUEUE_LIMIT = 16
#: How long close() waits for in-flight queries before force-finishing them.
DEFAULT_CLOSE_TIMEOUT = 30.0
#: Consecutive same-UDF query failures before the circuit breaker opens.
DEFAULT_BREAKER_THRESHOLD = 5
#: Seconds an open breaker fast-fails before admitting a half-open probe.
DEFAULT_BREAKER_COOLDOWN = 30.0

#: Sentinel marking the end of a handle's event stream / an exhausted iterator.
_DONE = object()


@dataclass
class _BreakerState:
    """Per-UDF-name circuit-breaker bookkeeping (guarded by the service lock).

    ``failures`` counts *consecutive* failed queries naming the UDF (any
    success resets it).  ``opened_at`` is the monotonic instant the breaker
    tripped (``None`` while closed); ``probing`` marks that the single
    half-open probe query has been admitted and its outcome is pending.
    """

    failures: int = 0
    opened_at: Optional[float] = None
    probing: bool = False


@dataclass(frozen=True)
class QueryEvent:
    """One anytime-result event: a tuple's verdict the moment it settled.

    Streamed by :meth:`QueryHandle.stream` while the query runs — the same
    ``(tuple_id, verdict, bound, version)`` quadruple that
    :class:`~repro.engine.result.TupleVerdict` records in the final
    result, with ``version`` a per-query monotone sequence number (the
    order the service observed the rows).
    """

    tuple_id: int
    verdict: str
    bound: float
    version: int

    def as_verdict(self) -> TupleVerdict:
        """The equivalent :class:`~repro.engine.result.TupleVerdict`."""
        return TupleVerdict(self.tuple_id, self.verdict, self.bound, self.version)


def _next_or_done(iterator: Iterator[Any]) -> Any:
    """Pull one item on a pool thread; the sentinel marks exhaustion."""
    try:
        return next(iterator)
    except StopIteration:
        return _DONE


class QueryHandle:
    """Client-side handle to one in-flight (or finished) served query.

    Returned by :meth:`QueryService.submit`; all methods are safe to call
    from any thread.  Consume anytime events with :meth:`stream`, block
    for the final :class:`~repro.engine.result.QueryResult` with
    :meth:`result`, or abort with :meth:`cancel`.
    """

    def __init__(self, name: str, service: "QueryService") -> None:
        """Create the handle (``QueryService.submit`` does this)."""
        self.name = name
        self._service = service
        self._events: "queue.Queue[Any]" = queue.Queue()
        self._done = threading.Event()
        self._result: Optional[QueryResult] = None
        self._error: Optional[BaseException] = None
        self._future: Optional["ConcurrentFuture[None]"] = None

    # -- service-side plumbing ----------------------------------------------------
    def _push(self, event: Any) -> None:
        """Enqueue one event (or the terminal sentinel) for stream()."""
        self._events.put(event)

    def _finish(
        self,
        result: Optional[QueryResult] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Record the outcome, release result() waiters, close the stream.

        The result/error is stored *before* the done event is set and the
        stream sentinel is pushed, so a waiter woken by either signal
        always observes the final outcome.  Idempotent: only the first
        call wins (the close() safety net may race normal completion).
        """
        if self._done.is_set():
            return
        self._result = result
        self._error = error
        self._done.set()
        self._events.put(_DONE)

    # -- client API ---------------------------------------------------------------
    def stream(self) -> Iterator[QueryEvent]:
        """Yield anytime :class:`QueryEvent` records until the query ends.

        Blocks between events; the generator ends when the query
        completes, fails, times out or is cancelled (errors are *not*
        raised here — call :meth:`result` for the outcome).
        """
        while True:
            event = self._events.get()
            if event is _DONE:
                # Keep the stream re-drainable for late/second consumers.
                self._events.put(_DONE)
                return
            yield event

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block for the final result (bit-identical to the serial run).

        Raises the query's stored error if it failed:
        :class:`~repro.exceptions.QueryCancelledError` after
        :meth:`cancel`, :class:`~repro.exceptions.QueryTimeoutError` after
        a server-side per-query timeout, or whatever the UDF raised.  A
        ``timeout`` here is a *client-side* wait bound: expiring raises
        :class:`~repro.exceptions.QueryTimeoutError` without affecting
        the still-running query.
        """
        if not self._done.wait(timeout):
            raise QueryTimeoutError(
                f"query {self.name!r} did not finish within the {timeout}s "
                "result() wait (the query itself is still running)"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def cancel(self) -> bool:
        """Request cancellation; returns whether a cancel was delivered.

        The query's coroutine is cancelled at its next row-pull boundary;
        a chunk already evaluating on a worker thread drains there (its
        transport closes on the way out, per the transport session
        contract).  After cancellation :meth:`result` raises
        :class:`~repro.exceptions.QueryCancelledError`.  Returns ``False``
        when the query already finished.
        """
        return self._service._cancel(self)

    def done(self) -> bool:
        """Whether the query has finished (any outcome)."""
        return self._done.is_set()

    def cancelled(self) -> bool:
        """Whether the query ended by cancellation."""
        return self._done.is_set() and isinstance(self._error, QueryCancelledError)

    def __repr__(self) -> str:
        state = "done" if self._done.is_set() else "running"
        return f"QueryHandle({self.name!r}, {state})"


class QueryService:
    """Long-lived concurrent query executor with a shared worker budget.

    One service hosts many concurrent queries: a private asyncio loop on
    a dedicated thread (named ``repro-query-service``) schedules one
    coroutine per query, and all row evaluation funnels through one
    shared :class:`~concurrent.futures.ThreadPoolExecutor` of
    ``worker_budget`` threads (prefix ``repro-serve``) — the hard
    concurrency bound — with a FIFO semaphore in front for fair,
    round-robin row scheduling across queries.

    ``queue_limit`` bounds admitted-but-unfinished queries;
    :meth:`submit` beyond it raises
    :class:`~repro.exceptions.ServiceOverloadError` (backpressure is the
    caller's problem by design — retry, shed, or widen the limit).

    Use as a context manager, or call :meth:`close` — which cancels
    stragglers, drains the pool, and joins the loop thread so no threads
    or event loops outlive the service.
    """

    def __init__(
        self,
        worker_budget: int = DEFAULT_WORKER_BUDGET,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        share_models: bool = False,
        breaker_threshold: Optional[int] = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
    ) -> None:
        """Start the service loop thread and worker pool immediately.

        ``breaker_threshold`` consecutive failed queries naming the same
        UDF trip that UDF's circuit breaker: further submissions fast-fail
        with :class:`~repro.exceptions.CircuitOpenError` (no engine work,
        no queue slot) until ``breaker_cooldown`` seconds pass, after
        which exactly one *half-open* probe query is admitted — its
        success closes the breaker, its failure re-opens the cooldown.
        ``breaker_threshold=None`` disables the breaker entirely.
        """
        if worker_budget < 1:
            raise ServiceError(f"worker_budget must be >= 1, got {worker_budget}")
        if queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {queue_limit}")
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ServiceError(
                f"breaker_threshold must be >= 1 or None, got {breaker_threshold}"
            )
        if breaker_cooldown <= 0.0:
            raise ServiceError(
                f"breaker_cooldown must be positive, got {breaker_cooldown}"
            )
        self.worker_budget = worker_budget
        self.queue_limit = queue_limit
        self.share_models = share_models
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = float(breaker_cooldown)
        #: Per-UDF-name breaker states (guarded by ``_lock``).
        self._breakers: Dict[str, _BreakerState] = {}
        self._lock = threading.Lock()
        self._active: Dict[QueryHandle, "ConcurrentFuture[None]"] = {}
        self._closed = False
        self._counter = itertools.count()
        #: Live shared-model stores keyed by region then UDF name; every
        #: admitted engine binds to them under ``share_models``, so any
        #: number of concurrent same-region queries learn from — and
        #: contribute to — one model (guarded by ``_lock``).
        self._model_stores: Dict[str, Dict[str, SharedEmulatorStore]] = {}
        #: Validated plans deduped by field tuple (skipped for unhashable
        #: fields such as transport instances).
        self._plan_cache: Dict[Tuple[Any, ...], "ExecutionPlan"] = {}
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "timed_out": 0,
            "rejected": 0,
            "fast_failed": 0,
        }
        self._pool = ThreadPoolExecutor(
            max_workers=worker_budget, thread_name_prefix="repro-serve"
        )
        self._loop = asyncio.new_event_loop()
        self._slots: Optional[asyncio.Semaphore] = None
        ready = threading.Event()

        def _serve() -> None:
            asyncio.set_event_loop(self._loop)
            # The semaphore must be created on the loop it will wait on.
            self._slots = asyncio.Semaphore(worker_budget)
            ready.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=_serve, name="repro-query-service", daemon=False
        )
        self._thread.start()
        ready.wait()

    # -- submission ---------------------------------------------------------------
    def submit(
        self,
        query: "Query",
        engine: "UDFExecutionEngine",
        plan: "Optional[ExecutionPlan | str]" = None,
        timeout: Optional[float] = None,
        name: Optional[str] = None,
        region: str = "default",
    ) -> QueryHandle:
        """Admit one query onto the shared budget; returns immediately.

        ``engine`` should be *fresh and private to this query* — the
        service installs ``plan`` as the engine's default plan (the seam
        every UDF operator falls back to when the query builder carried
        no explicit configuration) and, under ``share_models``, binds the
        engine to the ``region``'s live shared emulator stores.  ``timeout`` bounds the
        query's server-side wall-clock; expiry cancels it exactly like
        :meth:`QueryHandle.cancel` and stores a
        :class:`~repro.exceptions.QueryTimeoutError`.

        Raises
        ------
        ServiceError
            When the service is closed.
        ServiceOverloadError
            When ``queue_limit`` queries are already in flight.
        CircuitOpenError
            When a UDF named by the query has its circuit breaker open
            (still cooling down, or its half-open probe is already out).
        """
        handle_name = name if name is not None else f"query-{next(self._counter)}"
        handle = QueryHandle(handle_name, self)
        udf_names = self._query_udf_names(query, engine)
        with self._lock:
            if self._closed:
                raise ServiceError("cannot submit to a closed QueryService")
            if len(self._active) >= self.queue_limit:
                self.stats["rejected"] += 1
                raise ServiceOverloadError(
                    f"service at queue_limit={self.queue_limit} in-flight "
                    f"queries; rejecting {handle_name!r} (retry or shed load)"
                )
            self._breaker_admit(handle_name, udf_names)
            self.stats["submitted"] += 1
            if plan is not None:
                plan = self._cached_plan(plan)
            engine.plan = plan if plan is not None else engine.plan
            if self.share_models:
                self._bind_stores(engine, region)
            future = asyncio.run_coroutine_threadsafe(
                self._run_query(handle, query, engine, timeout, udf_names),
                self._loop,
            )
            handle._future = future
            self._active[handle] = future
        return handle

    def _query_udf_names(
        self, query: "Query", engine: "UDFExecutionEngine"
    ) -> Tuple[str, ...]:
        """The UDF names the query would evaluate (breaker granularity).

        Built from the *planned* (not executed) operator tree; planning is
        pure tree construction, so the peek costs no engine work.  A query
        whose planning itself fails reports no names — the failure will
        surface identically when the query runs.  Names are canonicalised
        to the catalog spelling (:func:`~repro.udf.catalog
        .canonical_udf_name`), so breaker state keyed here lines up with
        catalog entries and profile names regardless of how the UDF's
        ``name`` attribute is cased.
        """
        from repro.udf.catalog import canonical_udf_name

        try:
            operator = query.plan(engine)
        except Exception:  # malformed query: let _execute raise the real error
            return ()
        names: List[str] = []
        for node in operator._tree_nodes():
            udf = getattr(node, "udf", None)
            udf_name = getattr(udf, "name", None)
            if udf_name is None:
                continue
            key = canonical_udf_name(udf_name)
            if key not in names:
                names.append(key)
        return tuple(names)

    def _breaker_admit(self, handle_name: str, udf_names: Tuple[str, ...]) -> None:
        """Fast-fail against open breakers; mark half-open probes (caller locks).

        A breaker still inside its cooldown (or whose single half-open
        probe is already in flight) raises
        :class:`~repro.exceptions.CircuitOpenError` before the query
        consumes a queue slot or any engine work.  Once every open breaker
        the query touches has cooled down, this submission is admitted as
        their half-open probe.
        """
        if self.breaker_threshold is None:
            return
        now = time.monotonic()
        for udf_name in udf_names:
            state = self._breakers.get(udf_name)
            if state is None or state.opened_at is None:
                continue
            elapsed = now - state.opened_at
            if state.probing:
                self.stats["fast_failed"] += 1
                raise CircuitOpenError(
                    f"circuit breaker for UDF {udf_name!r} is half-open with a "
                    f"probe query already in flight; rejecting {handle_name!r} "
                    "until the probe's outcome settles the breaker"
                )
            if elapsed < self.breaker_cooldown:
                self.stats["fast_failed"] += 1
                raise CircuitOpenError(
                    f"circuit breaker for UDF {udf_name!r} is open after "
                    f"{state.failures} consecutive query failures; "
                    f"fast-failing {handle_name!r} for another "
                    f"{self.breaker_cooldown - elapsed:.1f}s of the "
                    f"{self.breaker_cooldown:g}s cooldown, then one half-open "
                    "probe query is admitted"
                )
        for udf_name in udf_names:
            state = self._breakers.get(udf_name)
            if state is not None and state.opened_at is not None:
                state.probing = True

    def _breaker_record(self, udf_names: Tuple[str, ...], success: bool) -> None:
        """Fold one query outcome into the breakers of the UDFs it named.

        Success closes (and fully resets) each breaker; failure extends
        the consecutive-failure streak, trips the breaker at
        ``breaker_threshold``, and re-opens a breaker whose half-open
        probe just failed.  Cancellations and timeouts are *not* recorded
        — they say nothing about the UDF's health.
        """
        if self.breaker_threshold is None or not udf_names:
            return
        with self._lock:
            for udf_name in udf_names:
                state = self._breakers.setdefault(udf_name, _BreakerState())
                if success:
                    state.failures = 0
                    state.opened_at = None
                    state.probing = False
                else:
                    state.failures += 1
                    if state.probing or state.failures >= self.breaker_threshold:
                        state.opened_at = time.monotonic()
                        state.probing = False

    def _cached_plan(self, plan: "ExecutionPlan | str") -> "ExecutionPlan | str":
        """Dedupe equal validated plans so repeat submissions share one.

        The ``"auto"`` spelling passes through uncached: it resolves to a
        *different* plan per UDF profile and input size, so there is no
        one plan object to share.
        """
        if isinstance(plan, str):
            return plan
        try:
            key = tuple(getattr(plan, f.name) for f in fields(plan))
            return self._plan_cache.setdefault(key, plan)
        except TypeError:  # unhashable field (e.g. a transport instance)
            return plan

    # -- the per-query coroutine --------------------------------------------------
    async def _run_query(
        self,
        handle: QueryHandle,
        query: "Query",
        engine: "UDFExecutionEngine",
        timeout: Optional[float],
        udf_names: Tuple[str, ...] = (),
    ) -> None:
        """Run one query end to end and record its outcome on the handle."""
        result: Optional[QueryResult] = None
        error: Optional[BaseException] = None
        try:
            result = await asyncio.wait_for(
                self._execute(handle, query, engine), timeout
            )
        except asyncio.CancelledError:
            error = QueryCancelledError(f"query {handle.name!r} was cancelled")
            self._bump("cancelled")
        except (asyncio.TimeoutError, TimeoutError):
            error = QueryTimeoutError(
                f"query {handle.name!r} exceeded its {timeout}s timeout"
            )
            self._bump("timed_out")
        except BaseException as exc:  # noqa: BLE001 — stored, re-raised by result()
            error = exc
            self._bump("failed")
            self._breaker_record(udf_names, success=False)
        else:
            self._bump("completed")
            self._breaker_record(udf_names, success=True)
        finally:
            with self._lock:
                self._active.pop(handle, None)
            handle._finish(result=result, error=error)

    async def _execute(
        self, handle: QueryHandle, query: "Query", engine: "UDFExecutionEngine"
    ) -> QueryResult:
        """Pull the query's operator tree row by row through the pool.

        Rows are pulled strictly sequentially for this query (bit-identity
        with the serial run); the FIFO ``_slots`` semaphore interleaves
        pulls fairly across in-flight queries, and the pool bounds actual
        evaluation concurrency at ``worker_budget`` even when a cancelled
        query's last chunk is still draining on a worker thread.
        """
        loop = asyncio.get_running_loop()
        operator = query.plan(engine)
        iterator = iter(operator)
        relation = Relation(name=handle.name, schema=operator.schema())
        verdicts: List[TupleVerdict] = []
        epsilon = engine.requirement.epsilon
        timings = PhaseTimings()
        slots = self._slots
        assert slots is not None
        with timings.measure("execute"):
            while True:
                async with slots:
                    row = await loop.run_in_executor(
                        self._pool, _next_or_done, iterator
                    )
                if row is _DONE:
                    break
                verdict = classify_row(
                    row, epsilon, tuple_id=len(verdicts), version=len(verdicts)
                )
                relation.insert(row)
                verdicts.append(verdict)
                handle._push(
                    QueryEvent(
                        verdict.tuple_id, verdict.verdict, verdict.bound,
                        verdict.version,
                    )
                )
        operator._merge_executor_timings(timings)
        self._merge_model_timings(engine, timings)
        return QueryResult(
            relation,
            plan=operator._tree_plan(),
            timings=timings,
            verdicts=verdicts,
        )

    @staticmethod
    def _merge_model_timings(engine: "UDFExecutionEngine", timings: PhaseTimings) -> None:
        """Fold per-processor shared-model sync time into the result timings.

        Every served result reports the ``model_refresh`` / ``model_append``
        phases (zero when ``share_models`` is off or nothing synced), so
        shared-model overhead is observable in every bench row.
        """
        timings.ensure("model_refresh", "model_append")
        for name in engine._processors:
            sync = engine.olgapro_for(name, create=False).model_sync
            if sync is not None:
                timings.merge(sync.timings)

    def _bump(self, stat: str) -> None:
        """Thread-safely increment one stats counter."""
        with self._lock:
            self.stats[stat] += 1

    # -- cross-query shared models (share_models=True) ----------------------------
    def _store_for(self, region: str, udf_name: str) -> SharedEmulatorStore:
        """The region's live store for ``udf_name`` (created on first use)."""
        with self._lock:
            pool = self._model_stores.setdefault(region, {})
            store = pool.get(udf_name)
            if store is None:
                store = pool[udf_name] = SharedEmulatorStore()
            return store

    def _bind_stores(self, engine: "UDFExecutionEngine", region: str) -> None:
        """Point the engine's shared-store seam at the region's registry.

        Unlike the pre-store loan cache, nothing is moved or locked out:
        every processor the engine creates binds an
        :class:`~repro.core.shared_model.EmulatorSync` to the same store,
        so any number of concurrent same-region queries publish to — and
        seed from — one live model.  Called from :meth:`submit`; the
        resolver itself runs later, on worker threads, and takes the
        service lock only for the registry lookup.
        """

        def resolver(udf: "UDF") -> SharedEmulatorStore:
            return self._store_for(region, udf.name)

        engine._shared_store_resolver = resolver

    # -- cancellation / shutdown --------------------------------------------------
    def _cancel(self, handle: QueryHandle) -> bool:
        """Cancel one in-flight query (``QueryHandle.cancel`` calls this)."""
        with self._lock:
            future = self._active.get(handle)
        if future is None:
            return False
        # run_coroutine_threadsafe chains this into the loop-side task
        # cancel; the coroutine then unwinds at its next await point.
        return future.cancel()

    def close(
        self,
        cancel_pending: bool = True,
        timeout: float = DEFAULT_CLOSE_TIMEOUT,
        drain: bool = False,
    ) -> None:
        """Shut the service down, releasing every thread and the loop.

        ``drain=True`` is the graceful path: new submissions are rejected
        immediately (the closed flag is set under the lock before any
        waiting), but every in-flight query is left running and awaited —
        up to ``timeout`` seconds total across all of them — so clients
        holding a :class:`QueryHandle` still receive their real results.
        Otherwise ``cancel_pending`` (the default) cancels all in-flight
        queries; ``cancel_pending=False`` awaits them like ``drain`` does.
        Then the loop is stopped and joined, the worker pool drained, and
        — as a safety net — any handle still unfinished is force-finished
        with :class:`~repro.exceptions.QueryCancelledError` so no
        :meth:`QueryHandle.result` waiter blocks forever.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._active.items())
        if cancel_pending and not drain:
            for _handle, future in pending:
                future.cancel()
        # One shared wall-clock deadline across every pending handle — a
        # slow query cannot starve the wait budget of the ones after it,
        # and an already-finished handle consumes none of it.
        deadline = time.monotonic() + max(0.0, timeout)
        for handle, _future in pending:
            handle._done.wait(max(0.0, deadline - time.monotonic()))
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._loop.close()
        self._pool.shutdown(wait=True)
        for handle, _future in pending:
            handle._finish(
                error=QueryCancelledError(
                    f"query {handle.name!r} cancelled by service shutdown"
                )
            )

    def active_count(self) -> int:
        """Number of queries currently admitted and unfinished."""
        with self._lock:
            return len(self._active)

    def __enter__(self) -> "QueryService":
        """Context-manager entry: the already-running service."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: :meth:`close` with defaults."""
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"active={self.active_count()}"
        return (
            f"QueryService(worker_budget={self.worker_budget}, "
            f"queue_limit={self.queue_limit}, {state})"
        )
