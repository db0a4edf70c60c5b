"""Black-box UDF abstraction.

The framework treats every user-defined function as an opaque callable
``f: R^d -> R`` (Section 1).  :class:`UDF` wraps such a callable and adds the
instrumentation the algorithms and experiments rely on:

* **call counting** — the central cost model of the paper is "how many times
  did we have to evaluate the UDF?", so every evaluation is counted;
* **wall-clock accounting and simulated evaluation time** — Expt 5 sweeps
  the per-call evaluation time ``T`` from 1 µs to 1 s.  Rather than
  busy-waiting (which would make the benchmark suite take hours), a UDF can
  declare a *simulated* per-call cost that is charged to an accounting clock;
  benchmarks report ``charged_time`` which combines real and simulated cost;
* **vectorised evaluation** — the underlying implementation may accept a
  batch ``(m, d)`` array; if not, the wrapper falls back to a Python loop,
  which is exactly how an external black box would behave;
* **concurrent (async-capable) evaluation** — the asynchronous refinement
  pipeline (:mod:`repro.engine.async_exec`) evaluates several points at once
  through a thread pool while the caller keeps doing GP work.  Charge
  accounting is therefore guarded by a lock, the number of *in-flight*
  evaluations is tracked, and :meth:`UDF.submit_rows` puts one evaluation
  per row on a :class:`concurrent.futures.Executor`.  The engine's thread
  carrier (:class:`~repro.engine.transport.ThreadPoolTransport`) submits
  through it every overlapped value the window driver
  (:mod:`repro.engine.async_exec`) needs — refinement windows, single
  refinement points, initial designs;
* **natively-async UDFs** — :class:`AsyncUDF` wraps a coroutine function
  (an HTTP-service client, an ``asyncio``-based simulator).  It remains a
  drop-in :class:`UDF` — the blocking call path runs the coroutine to
  completion — while exposing :meth:`AsyncUDF.evaluate_async` for the
  event-loop transport, with identical validation and charge accounting.
"""

from __future__ import annotations

import asyncio
import os
import selectors
import threading
import time
import weakref
from concurrent.futures import Executor, Future
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import TransientUDFError, UDFError
from repro.udf.retry import RetryPolicy


class UDF:
    """An instrumented black-box scalar function of a d-dimensional input."""

    def __init__(
        self,
        func: Callable[[np.ndarray], float | np.ndarray],
        dimension: int,
        name: str = "udf",
        vectorized: bool = False,
        simulated_eval_time: float = 0.0,
        domain: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ):
        if dimension <= 0:
            raise UDFError(f"dimension must be positive, got {dimension}")
        if simulated_eval_time < 0:
            raise UDFError("simulated_eval_time must be non-negative")
        self._func = func
        self.dimension = int(dimension)
        self.name = str(name)
        self.vectorized = bool(vectorized)
        self.simulated_eval_time = float(simulated_eval_time)
        if domain is not None:
            low = np.atleast_1d(np.asarray(domain[0], dtype=float))
            high = np.atleast_1d(np.asarray(domain[1], dtype=float))
            if low.shape != (self.dimension,) or high.shape != (self.dimension,):
                raise UDFError("domain bounds must match the UDF dimension")
            if np.any(high <= low):
                raise UDFError("domain upper bounds must exceed lower bounds")
            self.domain: Optional[tuple[np.ndarray, np.ndarray]] = (low, high)
        else:
            self.domain = None

        self._call_count = 0
        self._real_time = 0.0
        #: Guards the charge counters: worker threads of the async pipeline
        #: evaluate points concurrently and each completion charges through
        #: :meth:`_charge`, so the read-modify-write must be atomic.
        self._charge_lock = threading.Lock()
        self._inflight = 0
        self._max_inflight = 0
        #: Retry policy installed for the duration of one computation by
        #: :meth:`_install_retry_policy` (the engine's plan seam); ``None``
        #: means transient failures propagate on the first occurrence.
        self._retry_policy: Optional[RetryPolicy] = None
        self._retries_used = 0

    # -- pickling ----------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Pickle support: locks are process-local and cannot be pickled.

        The in-flight gauges are process-local too: an evaluation in flight
        in this process will never complete in the unpickled copy, so
        carrying the counters over would leave the copy's ``in_flight``
        permanently non-zero (and its high-water mark claiming concurrency
        that never happened there).  Worker copies start at zero.

        The snapshot is taken under the charge lock: concurrent completions
        charge calls and seconds as one atomic pair, and a copy must never
        capture the pair half-applied.
        """
        with self._charge_lock:
            state = dict(self.__dict__)
        del state["_charge_lock"]
        state["_inflight"] = 0
        state["_max_inflight"] = 0
        # Worker copies keep the retry *policy* (pool workers must retry
        # exactly like the parent) but start a fresh budget window: the
        # parent's consumed retries happened in the parent process.
        state["_retries_used"] = 0
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Recreate the process-local charge lock after unpickling."""
        self.__dict__.update(state)
        self._charge_lock = threading.Lock()
        self.__dict__.setdefault("_retry_policy", None)
        self.__dict__.setdefault("_retries_used", 0)

    # -- instrumentation ---------------------------------------------------------
    @property
    def call_count(self) -> int:
        """Number of scalar evaluations performed so far."""
        return self._call_count

    @property
    def real_time(self) -> float:
        """Actual wall-clock seconds spent inside the black box."""
        return self._real_time

    @property
    def charged_time(self) -> float:
        """Wall-clock plus simulated per-call cost (the experiment cost model)."""
        return self._real_time + self._call_count * self.simulated_eval_time

    @property
    def in_flight(self) -> int:
        """Evaluations currently submitted but not yet completed."""
        with self._charge_lock:
            return self._inflight

    @property
    def max_in_flight(self) -> int:
        """High-water mark of concurrently in-flight evaluations.

        After a :meth:`reset_counters`, the mark restarts at the number of
        evaluations that were still outstanding at the reset (they continue
        to occupy the pipeline, so they are the new window's floor).
        """
        with self._charge_lock:
            return self._max_inflight

    def _charge(self, calls: int, seconds: float) -> None:
        """Atomically credit ``calls`` evaluations costing ``seconds`` wall-clock."""
        with self._charge_lock:
            self._call_count += calls
            self._real_time += seconds

    def _enter_flight(self) -> None:
        with self._charge_lock:
            self._inflight += 1
            self._max_inflight = max(self._max_inflight, self._inflight)

    def _exit_flight(self) -> None:
        with self._charge_lock:
            # Clamp rather than go negative: an unbalanced exit (e.g. an
            # executor that ran a task it also reported as cancelled) must
            # not corrupt the gauge for every later window.
            self._inflight = max(0, self._inflight - 1)

    def reset_counters(self) -> None:
        """Zero the call counter and timing accumulators.

        Safe to call while evaluations are outstanding: the counter reset
        and the in-flight high-water reseed happen in one critical section
        with the enter/exit tracking, so however completions interleave the
        mark can never end up below the number of evaluations still in
        flight at the reset, and a window that grows afterwards raises it
        from that floor exactly as a fresh UDF would.
        """
        with self._charge_lock:
            self._call_count = 0
            self._real_time = 0.0
            self._max_inflight = self._inflight

    def absorb_charges(self, calls: int, real_time: float) -> None:
        """Credit evaluations performed by an external copy of this UDF.

        Parallel workers evaluate pickled *copies* whose counters advance in
        their own process; the parent calls this with each worker's deltas so
        the paper's cost model (total UDF calls, charged time) stays accurate
        under sharded execution.
        """
        if calls < 0 or real_time < 0:
            raise UDFError("absorbed charges must be non-negative")
        self._charge(int(calls), float(real_time))

    # -- retry machinery -----------------------------------------------------------
    @property
    def retries_used(self) -> int:
        """Retries consumed since the current policy was installed."""
        with self._charge_lock:
            return self._retries_used

    def _install_retry_policy(self, policy: Optional[RetryPolicy]) -> None:
        """Arm (or, with ``None``, disarm) retries for one computation.

        Called by the engine around each plan execution; the budget window
        restarts with each installation.  Pickled worker copies carry the
        installed policy with them (see :meth:`__getstate__`), so every
        transport and the process-pool shards retry identically.
        """
        with self._charge_lock:
            self._retry_policy = policy
            self._retries_used = 0

    def _consume_retry(self) -> bool:
        """Atomically spend one retry from the policy's budget.

        Returns ``False`` — leaving the budget untouched — when no policy
        is installed or the cross-point ``retry_budget`` is exhausted;
        concurrent evaluation threads contend on the same budget, so the
        check-and-increment is one critical section.
        """
        policy = self._retry_policy
        if policy is None:
            return False
        with self._charge_lock:
            if (
                policy.retry_budget is not None
                and self._retries_used >= policy.retry_budget
            ):
                return False
            self._retries_used += 1
            return True

    def _retry_delay(self, failure_count: int) -> Optional[float]:
        """Delay before re-attempting after the ``failure_count``-th failure.

        ``None`` means "do not retry" — no policy installed, per-point
        attempts exhausted, or cross-point budget spent (the budget is only
        consumed when a retry is actually granted).
        """
        policy = self._retry_policy
        if policy is None or failure_count >= policy.max_attempts:
            return None
        if not self._consume_retry():
            return None
        return policy.delay_for(failure_count)

    def with_simulated_eval_time(self, seconds: float) -> "UDF":
        """Copy of this UDF charged at a different simulated per-call cost."""
        return UDF(
            self._func,
            self.dimension,
            name=self.name,
            vectorized=self.vectorized,
            simulated_eval_time=seconds,
            domain=self.domain,
        )

    # -- evaluation -----------------------------------------------------------------
    def __call__(self, x: np.ndarray) -> float:
        """Evaluate the UDF at a single point ``x`` of shape ``(d,)``.

        Transient failures (:class:`~repro.exceptions.TransientUDFError`)
        are retried under the installed :class:`~repro.udf.retry
        .RetryPolicy` — the same point, re-issued after a deterministic
        backoff — so a recovered evaluation is bit-identical to one that
        never failed.  Fatal and untyped failures propagate immediately.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dimension,):
            raise UDFError(
                f"{self.name}: input has shape {x.shape}, expected ({self.dimension},)"
            )
        failures = 0
        while True:
            try:
                return self._call_validated(x)
            except TransientUDFError:
                failures += 1
                delay = self._retry_delay(failures)
                if delay is None:
                    raise
                if delay > 0.0:
                    time.sleep(delay)

    def _call_validated(self, x: np.ndarray) -> float:
        """One attempt at a shape-checked point: evaluate, charge, validate.

        Typed :class:`UDFError` subclasses raised by the black box pass
        through unwrapped — the transient/fatal split must survive to the
        retry loop — while arbitrary exceptions are wrapped as before.
        Failed attempts charge nothing, so a run that recovers via retries
        reports the same ``call_count`` as the fault-free run.
        """
        start = time.perf_counter()
        try:
            if self.vectorized:
                value = self._func(x.reshape(1, -1))
                value = float(np.asarray(value).ravel()[0])
            else:
                value = float(self._func(x))
        except UDFError:
            raise
        except Exception as exc:  # noqa: BLE001 - black-box code can raise anything
            raise UDFError(f"{self.name}: evaluation failed at {x!r}: {exc}") from exc
        self._charge(1, time.perf_counter() - start)
        if not np.isfinite(value):
            raise UDFError(f"{self.name}: evaluation returned non-finite value {value}")
        return value

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the UDF at every row of ``X`` (shape ``(m, d)``)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dimension:
            raise UDFError(
                f"{self.name}: batch has {X.shape[1]} columns, expected {self.dimension}"
            )
        start = time.perf_counter()
        if self.vectorized:
            failures = 0
            while True:
                try:
                    return self._batch_validated(X)
                except TransientUDFError:
                    failures += 1
                    delay = self._retry_delay(failures)
                    if delay is None:
                        raise
                    if delay > 0.0:
                        time.sleep(delay)
        # Non-vectorised path goes through __call__ so per-call accounting is
        # identical to how an external black box would be charged (and so
        # transient failures are retried per point, not per batch).
        self._charge(0, time.perf_counter() - start)
        return np.array([self(row) for row in X])

    def _batch_validated(self, X: np.ndarray) -> np.ndarray:
        """One attempt at a vectorised batch: evaluate, charge, validate.

        The typed-passthrough twin of :meth:`_call_validated`; failed
        attempts charge nothing.
        """
        start = time.perf_counter()
        try:
            values = np.asarray(self._func(X), dtype=float).ravel()
        except UDFError:
            raise
        except Exception as exc:  # noqa: BLE001
            raise UDFError(f"{self.name}: batch evaluation failed: {exc}") from exc
        if values.shape[0] != X.shape[0]:
            raise UDFError(
                f"{self.name}: vectorised implementation returned {values.shape[0]} "
                f"values for {X.shape[0]} inputs"
            )
        self._charge(X.shape[0], time.perf_counter() - start)
        if not np.all(np.isfinite(values)):
            raise UDFError(f"{self.name}: batch evaluation returned non-finite values")
        return values

    # -- concurrent evaluation ----------------------------------------------------
    def _evaluate_row_tracked(self, row: np.ndarray) -> float:
        """One point through :meth:`__call__`, bracketed by in-flight tracking."""
        try:
            return self(row)
        finally:
            self._exit_flight()

    def submit_rows(self, executor: Executor, X: np.ndarray) -> List[Future]:
        """Submit one evaluation per row of ``X`` to ``executor``.

        Parameters
        ----------
        executor:
            A :class:`concurrent.futures.Executor` (typically a bounded
            thread pool) that runs the black-box calls.
        X:
            Points to evaluate, shape ``(k, d)``.

        Returns
        -------
        list[concurrent.futures.Future]
            One future per row, **in row order** — completion order is up to
            the executor, so callers that need determinism must consume
            results by index, not by completion.  Each future resolves to the
            scalar UDF value; charge accounting happens on the worker thread
            at completion (thread-safe), and :attr:`in_flight` counts the
            submitted-but-not-finished evaluations.

        Raises
        ------
        UDFError
            From the resolved future, when the black box fails or returns a
            non-finite value (the submission itself never raises it).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        futures: List[Future] = []
        for row in X:
            self._enter_flight()
            try:
                futures.append(executor.submit(self._evaluate_row_tracked, row))
            except BaseException:
                self._exit_flight()
                raise
        return futures

    def measure_eval_time(self, n_probes: int = 20, random_state: Any = None) -> float:
        """Estimate the real per-call evaluation time by probing the domain.

        The hybrid GP/MC selector (Section 5.4) measures evaluation time
        while obtaining training data; this helper provides the same
        measurement for stand-alone use.  Simulated cost is included.
        """
        from repro.rng import as_generator

        rng = as_generator(random_state)
        if self.domain is not None:
            low, high = self.domain
        else:
            low = np.zeros(self.dimension)
            high = np.ones(self.dimension)
        probes = rng.uniform(low, high, size=(max(1, n_probes), self.dimension))
        count_before = self._call_count
        time_before = self._real_time
        for row in probes:
            self(row)
        elapsed = self._real_time - time_before
        calls = self._call_count - count_before
        return elapsed / calls + self.simulated_eval_time

    def __repr__(self) -> str:
        return (
            f"UDF(name={self.name!r}, dimension={self.dimension}, "
            f"simulated_eval_time={self.simulated_eval_time:g})"
        )


#: Per thread: the loop :meth:`AsyncUDF._run_blocking` runs on, and the
#: process that opened it (a forked child opens its own).
_blocking_loops = threading.local()


def _blocking_loop() -> asyncio.AbstractEventLoop:
    """The calling thread's private event loop, opened on first use.

    Closed when the thread object goes, or at exit.  Its selector keeps the
    registrations in the process (``poll``), not in a kernel object a forked
    child would share (``epoll``): a child that closes its copy takes nothing
    from the parent's loop.
    """
    local = _blocking_loops
    if getattr(local, "pid", None) != os.getpid():
        selector = getattr(selectors, "PollSelector", selectors.SelectSelector)()
        local.loop, local.pid = asyncio.SelectorEventLoop(selector), os.getpid()
        weakref.finalize(threading.current_thread(), local.loop.close)
    return local.loop


class AsyncUDF(UDF):
    """A UDF whose implementation is a native coroutine function.

    Models black boxes that are *naturally* asynchronous — an HTTP service
    behind an async client, an ``asyncio``-based simulation — where the
    per-call latency is awaited rather than slept in a thread.  An
    ``AsyncUDF`` is a drop-in :class:`UDF`: the blocking entry points
    (:meth:`UDF.__call__`, :meth:`UDF.evaluate_batch`) run the coroutine to
    completion on a private event loop, so every serial execution path —
    and therefore every bit-identity contract against the serial batched
    path — works unchanged.  The asynchronous entry point,
    :meth:`evaluate_async`, is what the
    :class:`~repro.engine.transport.AsyncioTransport` schedules on its
    event-loop thread: a refinement window of ``k`` calls then awaits its
    latencies concurrently, without ``k`` pool threads.

    Validation and instrumentation are identical on both paths: the same
    shape check, the same non-finite rejection, the same thread-safe
    per-call charge (each call charges its own awaited duration — the same
    rule threaded calls follow), the same in-flight gauge (maintained by
    the transports around submission/completion).

    Parameters
    ----------
    coro_func:
        ``async def f(x: ndarray) -> float`` — the black box.  Must be
        picklable (a module-level coroutine function or a callable object)
        for the UDF to ship into pool workers.
    dimension, name, simulated_eval_time, domain:
        As on :class:`UDF`.  ``vectorized`` is not offered: the service
        model is one request per point, concurrency comes from the
        transport.
    """

    def __init__(
        self,
        coro_func: Callable[[np.ndarray], Awaitable[float]],
        dimension: int,
        name: str = "async_udf",
        simulated_eval_time: float = 0.0,
        domain: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ):
        self._coro_func = coro_func
        super().__init__(
            self._run_blocking,
            dimension,
            name=name,
            vectorized=False,
            simulated_eval_time=simulated_eval_time,
            domain=domain,
        )

    def _run_blocking(self, x: np.ndarray) -> float:
        """Bridge for the blocking paths: run the coroutine to completion.

        Runs on whatever thread called it (a refinement loop, a pool
        worker), on that thread's private event loop, so blocking callers
        never need a loop of their own and concurrent blocking calls stay
        independent.  The loop is kept for the thread's life: a fresh one per
        call (:func:`asyncio.run`) opens and closes a selector and a socket
        pair around every evaluation — a dozen system calls that each give
        up the GIL, so under a served burst (8 worker threads) every call
        queued for the interpreter several times over and the drain time
        swung from run to run (perfbench ``serve_open_loop``, 10 alternating
        pairs: ``op_b_ms`` 150 -> 127, quartile distance 15 -> 12; ``op_a_ms``
        quartile distance 34 -> 14).
        """
        coro = self._coro_func(np.asarray(x, dtype=float))
        return float(_blocking_loop().run_until_complete(coro))

    async def evaluate_async(self, x: np.ndarray) -> float:
        """Evaluate one point on the *current* event loop.

        The coroutine counterpart of :meth:`UDF.__call__`: identical
        validation, identical charging (the awaited duration of this call),
        identical failure wrapping.  Scheduled by
        :class:`~repro.engine.transport.AsyncioTransport`; await it
        directly when composing with user-owned loops.

        Raises
        ------
        UDFError
            When the input shape is wrong, the black box raises, or the
            value is non-finite.  Transient failures are retried under the
            installed :class:`~repro.udf.retry.RetryPolicy` exactly as on
            the blocking path, with the backoff awaited
            (``asyncio.sleep``) instead of slept.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dimension,):
            raise UDFError(
                f"{self.name}: input has shape {x.shape}, expected ({self.dimension},)"
            )
        failures = 0
        while True:
            try:
                return await self._async_attempt(x)
            except TransientUDFError:
                failures += 1
                delay = self._retry_delay(failures)
                if delay is None:
                    raise
                if delay > 0.0:
                    await asyncio.sleep(delay)

    async def _async_attempt(self, x: np.ndarray) -> float:
        """One awaited attempt: evaluate, charge, validate (typed passthrough)."""
        start = time.perf_counter()
        try:
            value = float(await self._coro_func(x))
        except UDFError:
            raise
        except Exception as exc:  # noqa: BLE001 - black-box code can raise anything
            raise UDFError(f"{self.name}: evaluation failed at {x!r}: {exc}") from exc
        self._charge(1, time.perf_counter() - start)
        if not np.isfinite(value):
            raise UDFError(f"{self.name}: evaluation returned non-finite value {value}")
        return value

    def with_simulated_eval_time(self, seconds: float) -> "AsyncUDF":
        """Copy of this UDF charged at a different simulated per-call cost."""
        return AsyncUDF(
            self._coro_func,
            self.dimension,
            name=self.name,
            simulated_eval_time=seconds,
            domain=self.domain,
        )

    def __repr__(self) -> str:
        return (
            f"AsyncUDF(name={self.name!r}, dimension={self.dimension}, "
            f"simulated_eval_time={self.simulated_eval_time:g})"
        )


def as_udf(
    func: Callable[[np.ndarray], float] | UDF,
    dimension: int | None = None,
    name: str | None = None,
    **kwargs,
) -> UDF:
    """Coerce a plain callable (or an existing UDF) into a :class:`UDF`."""
    if isinstance(func, UDF):
        return func
    if dimension is None:
        raise UDFError("dimension is required when wrapping a plain callable")
    return UDF(func, dimension, name=name or getattr(func, "__name__", "udf"), **kwargs)
