"""Pluggable UDF evaluation transports for the refinement executors.

The overlapped execution layers (:mod:`repro.engine.async_exec`,
:mod:`repro.engine.pipeline`) treat the UDF as a black box whose *call
latency* dominates — precisely the regime where **how** an evaluation is
carried to the black box should be a separate, swappable layer.  Before
this module, both drivers hand-wired a bounded
:class:`~concurrent.futures.ThreadPoolExecutor` (duplicated creation,
sizing and shutdown logic); a natively-async UDF (an HTTP service, an
``asyncio``-based simulator) had no first-class path at all.

:class:`EvaluationTransport` is that seam.  A transport owns the resource
an evaluation rides on (nothing, a thread pool, an event loop thread) and
exposes one primitive — :meth:`~EvaluationTransport.submit_rows`, returning
one :class:`~concurrent.futures.Future` per input row, **in row order** —
plus an explicit :meth:`~EvaluationTransport.open` /
:meth:`~EvaluationTransport.close` lifecycle.  Everything above the
transport (the window driver, the speculative value pool, the fence and
rollback machinery, charge accounting) consumes futures by submission
index, so the determinism contracts of the window and the lookahead stage
carry over bit for bit regardless of the transport in use.

Four transports ship:

* :class:`SerialTransport` — evaluates inline on the calling thread and
  returns already-resolved futures.  No concurrency, no threads; useful as
  a debugging baseline and as the explicit "do not overlap" spelling.
* :class:`ThreadPoolTransport` — the extracted thread-pool logic the
  async and pipeline drivers previously each owned: a bounded pool, rows
  submitted through :meth:`~repro.udf.base.UDF.submit_rows` (which carries
  the in-flight gauge and charge accounting).
* :class:`AsyncioTransport` — an event loop running on a dedicated
  (non-daemon, always-joined) thread; rows of an
  :class:`~repro.udf.base.AsyncUDF` are scheduled as coroutines, so a
  window of ``k`` awaited latencies costs roughly one.  Blocking callables
  would stall the loop, so this transport requires an ``AsyncUDF``.
* :class:`SubprocessPoolTransport` — the out-of-process evaluation
  backend: each row is shipped (as a pickled UDF copy) to a bounded
  process pool and the worker's charge delta is folded back into the
  parent-side UDF, so the same query can target in-process, thread,
  event-loop or out-of-process evaluation by naming a transport.

Lifecycle and safety contract
-----------------------------
Transports are **specs until opened**: constructing one allocates nothing,
:meth:`~EvaluationTransport.open` allocates the live resource, and
:meth:`~EvaluationTransport.close` releases it — joining every thread the
transport started, including the event loop thread, so a failed query
(:class:`~repro.exceptions.QueryError` mid-computation) never leaks
non-daemon threads.  The executors drive this through
:meth:`~EvaluationTransport.session`, whose ``finally`` closes on every
exit path.  Pickling a transport (e.g. inside an engine snapshot shipped
to a pool worker) drops the live resource: the copy arrives closed and can
be opened fresh in its new process, and the original keeps running.
"""

from __future__ import annotations

import abc
import asyncio
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import PlanError, QueryError, TransportDrainTimeoutError
from repro.udf.base import UDF, AsyncUDF


class EvaluationTransport(abc.ABC):
    """How a refinement window's UDF evaluations reach the black box.

    Subclasses implement the three lifecycle/submission primitives; the
    base class provides the :meth:`session` context manager the executors
    use, pickling that drops live resources, and the UDF-compatibility
    check.  A transport instance serves one computation at a time (the
    executors open it per compute call), but is reusable: ``open`` after
    ``close`` starts a fresh resource.
    """

    #: Registry name of the transport (``"serial"`` / ``"threads"`` /
    #: ``"asyncio"``); used by :func:`make_transport` and by the parallel
    #: layer, which ships the *name* (never a live transport) to workers.
    name: str = "abstract"

    #: Seconds :meth:`drain` (and the asyncio transport's close-time drain)
    #: waits for outstanding evaluations before abandoning them; generous,
    #: because exceeding it means a black box is hung, and waiting forever
    #: would turn a query failure into a process hang.
    DRAIN_TIMEOUT = 60.0

    @abc.abstractmethod
    def open(self, max_workers: int, label: str = "udf") -> None:
        """Allocate the live evaluation resource.

        Parameters
        ----------
        max_workers:
            Concurrency the resource should sustain (pool width; advisory
            for transports without a fixed width).
        label:
            Human-readable tag woven into thread names so leaked-thread
            regressions are attributable.

        Raises
        ------
        QueryError
            When the transport is already open.
        """

    @abc.abstractmethod
    def submit_rows(self, udf: UDF, X: np.ndarray) -> List[Future]:
        """Dispatch one evaluation per row of ``X``.

        Returns one future per row **in row order**; completion order is
        transport-specific, so callers needing determinism must consume by
        index (exactly the contract of
        :meth:`~repro.udf.base.UDF.submit_rows`).  Charge accounting and
        the in-flight gauge of ``udf`` are maintained by the transport.

        Raises
        ------
        QueryError
            When the transport is not open, or ``udf`` is incompatible
            (see :meth:`accepts`).
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Release the live resource, joining every thread it started.

        Idempotent: closing a never-opened (or already-closed) transport
        is a no-op.  After ``close`` returns, no thread created by this
        transport is alive.
        """

    def drain(self, futures: List[Future], timeout: Optional[float] = None) -> None:
        """Wait out every future, swallowing failures (the settle step).

        An evaluation that was submitted must complete — and charge —
        before its window finishes, whether its result was absorbed or
        discarded; a discarded speculation's failure is irrelevant
        (serially the call would never have happened).  The base
        implementation waits in submission order; transports with their
        own settle machinery may override.

        The wait is bounded by ``timeout`` (default :attr:`DRAIN_TIMEOUT`)
        across the *whole* batch: a hung black box must not turn a drain
        into a process hang.  The raw :class:`concurrent.futures
        .TimeoutError` never escapes — it is wrapped in a typed
        :class:`~repro.exceptions.TransportDrainTimeoutError` naming this
        transport and the elapsed deadline, and the executor's session
        still closes the transport on that exit path (the pool is torn
        down; only the stuck evaluations are abandoned).

        Raises
        ------
        TransportDrainTimeoutError
            When outstanding evaluations remain after the deadline.
        """
        deadline_s = self.DRAIN_TIMEOUT if timeout is None else float(timeout)
        deadline = time.monotonic() + deadline_s
        for future in futures:
            remaining = deadline - time.monotonic()
            try:
                future.exception(timeout=max(0.0, remaining))
            except FuturesTimeoutError as exc:
                raise TransportDrainTimeoutError(
                    f"{self.name} transport drain exceeded its {deadline_s:g}s "
                    "deadline with evaluations still outstanding; abandoning "
                    "the stuck black-box call(s) — the transport itself is "
                    "still torn down by the executor's close-on-every-exit-"
                    "path session"
                ) from exc

    def accepts(self, udf: UDF) -> None:
        """Raise :class:`QueryError` when ``udf`` cannot ride this transport.

        The base implementation accepts every UDF; transports with
        stronger requirements (``asyncio`` needs a natively-async UDF)
        override this so executors can fail fast, before any resource is
        allocated or any tuple is computed.
        """
        del udf

    @contextmanager
    def session(self, max_workers: int, label: str = "udf") -> Iterator["EvaluationTransport"]:
        """``open`` on entry, ``close`` on *every* exit path.

        This is the shutdown guarantee of the bugfix contract: a
        :class:`~repro.exceptions.QueryError` (or any other exception)
        escaping the computation still runs ``close``, so no pool or
        event-loop thread outlives a failed query.
        """
        self.open(max_workers, label)
        try:
            yield self
        finally:
            self.close()

    # -- pickling -----------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Drop live resources: a pickled transport arrives closed.

        Pools, event loops and threads are process-local; shipping a
        transport inside an engine snapshot must neither fail nor tear
        down the original's live resource.  Subclasses list their live
        attributes in :attr:`_live_attrs`.
        """
        state = dict(self.__dict__)
        for attr in self._live_attrs():
            state[attr] = None
        return state

    def _live_attrs(self) -> Tuple[str, ...]:
        """Names of process-local attributes dropped on pickling."""
        return ()


class SerialTransport(EvaluationTransport):
    """Inline evaluation on the calling thread; futures arrive resolved.

    The degenerate transport: no concurrency, no allocated resource.  A
    window "submitted" through it evaluates row by row, synchronously, so
    it is only legal where no overlap is requested (the planner enforces
    this) — its value is as an explicit spelling of "serial" and as a
    bisection tool when debugging a transport-dependent difference.
    """

    name = "serial"

    def open(self, max_workers: int, label: str = "udf") -> None:
        """Nothing to allocate; parameters are accepted for uniformity."""
        del max_workers, label

    def submit_rows(self, udf: UDF, X: np.ndarray) -> List[Future]:
        """Evaluate each row immediately; return completed futures.

        The in-flight gauge is bracketed around each inline call (peaking
        at one, by construction) so gauge-based instrumentation reads
        consistently across carriers, per the transport contract.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        futures: List[Future] = []
        for row in X:
            future: Future = Future()
            udf._enter_flight()
            try:
                future.set_result(udf(row))
            except Exception as exc:  # noqa: BLE001 - delivered via the future
                future.set_exception(exc)
            finally:
                udf._exit_flight()
            futures.append(future)
        return futures

    def close(self) -> None:
        """Nothing to release."""


class ThreadPoolTransport(EvaluationTransport):
    """Bounded thread pool carrying blocking black-box calls.

    The default transport.  Submission delegates to
    :meth:`~repro.udf.base.UDF.submit_rows`, which owns the in-flight
    gauge and thread-safe charge accounting.
    """

    name = "threads"

    def __init__(self) -> None:
        """Create a closed transport (the pool is allocated by ``open``)."""
        self._pool: Optional[ThreadPoolExecutor] = None

    def open(self, max_workers: int, label: str = "udf") -> None:
        """Start a bounded pool named after the UDF being served."""
        if self._pool is not None:
            raise QueryError("thread-pool transport is already open")
        if max_workers < 1:
            raise QueryError(f"max_workers must be positive, got {max_workers}")
        self._pool = ThreadPoolExecutor(
            max_workers=int(max_workers), thread_name_prefix=f"udf-{label}"
        )

    def submit_rows(self, udf: UDF, X: np.ndarray) -> List[Future]:
        """One pool task per row, through the UDF's gauged submission path."""
        if self._pool is None:
            raise QueryError("thread-pool transport is not open")
        return udf.submit_rows(self._pool, X)

    def close(self) -> None:
        """Shut the pool down, waiting out (and thereby joining) its workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _live_attrs(self) -> Tuple[str, ...]:
        return ("_pool",)


class AsyncioTransport(EvaluationTransport):
    """Event-loop transport for natively-async UDFs.

    ``open`` starts one event loop on a dedicated **non-daemon** thread;
    ``submit_rows`` schedules each row as a coroutine via
    :func:`asyncio.run_coroutine_threadsafe`, so the returned
    :class:`~concurrent.futures.Future` objects compose with the window
    drivers exactly like pool futures do.  A window of ``k`` rows awaits
    its latencies concurrently on the loop — the asyncio analogue of ``k``
    pool threads sleeping in the black box, without the threads.

    Charge accounting and the in-flight gauge are maintained per row: the
    gauge increments at submission and decrements when the coroutine
    settles, and each completed call charges its own awaited duration —
    the same semantics the thread transport inherits from
    :meth:`~repro.udf.base.UDF.submit_rows`.

    ``close`` drains every coroutine still pending (their charges must
    land; failures of discarded speculation are delivered through their
    futures, never raised here), stops the loop, and joins the loop
    thread — the no-leaked-threads half of the shutdown contract.
    """

    name = "asyncio"

    def __init__(self) -> None:
        """Create a closed transport (the loop is started by ``open``)."""
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def accepts(self, udf: UDF) -> None:
        """Only :class:`~repro.udf.base.AsyncUDF` may ride the event loop.

        A blocking callable scheduled on the loop would serialise every
        "concurrent" evaluation behind itself — strictly worse than the
        thread transport — so it is rejected up front with the fix spelled
        out.
        """
        if not isinstance(udf, AsyncUDF):
            raise QueryError(
                f"the asyncio transport requires a natively-async UDF, but "
                f"{udf.name!r} is a blocking {type(udf).__name__}; wrap an "
                "async implementation in repro.udf.base.AsyncUDF, or use the "
                "'threads' transport for blocking black boxes"
            )

    def open(self, max_workers: int, label: str = "udf") -> None:
        """Start the event loop thread (``max_workers`` is advisory)."""
        del max_workers  # coroutine concurrency is bounded by the window
        if self._loop is not None:
            raise QueryError("asyncio transport is already open")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name=f"udf-asyncio-{label}",
            daemon=False,
        )
        self._thread.start()

    def submit_rows(self, udf: UDF, X: np.ndarray) -> List[Future]:
        """Schedule one coroutine per row; futures in row order."""
        self.accepts(udf)
        if self._loop is None:
            raise QueryError("asyncio transport is not open")
        assert isinstance(udf, AsyncUDF)  # narrowed by accepts()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        futures: List[Future] = []
        for row in X:
            udf._enter_flight()
            try:
                futures.append(
                    asyncio.run_coroutine_threadsafe(
                        self._evaluate_tracked(udf, row), self._loop
                    )
                )
            except BaseException:
                udf._exit_flight()
                raise
        return futures

    @staticmethod
    async def _evaluate_tracked(udf: AsyncUDF, row: np.ndarray) -> float:
        """One row through the async evaluation path, gauge-bracketed."""
        try:
            return await udf.evaluate_async(row)
        finally:
            udf._exit_flight()

    def close(self) -> None:
        """Drain pending coroutines, stop the loop, join the loop thread."""
        loop, thread = self._loop, self._thread
        self._loop = None
        self._thread = None
        if loop is None:
            return
        try:
            drain: Future = asyncio.run_coroutine_threadsafe(self._drain(), loop)
            drain.result(timeout=self.DRAIN_TIMEOUT)
        except Exception:  # noqa: BLE001 - drain failures must not block shutdown
            pass
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join()
        loop.close()

    @staticmethod
    async def _drain() -> None:
        """Await every task still pending on the loop, swallowing failures.

        Mirrors the executors' settle step: an evaluation that was
        submitted must complete (and charge) before shutdown, whether its
        result was absorbed, discarded, or doomed to raise.
        """
        current = asyncio.current_task()
        pending = [task for task in asyncio.all_tasks() if task is not current]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def _live_attrs(self) -> Tuple[str, ...]:
        return ("_loop", "_thread")


def _subprocess_evaluate(udf: UDF, row: Any) -> Tuple[float, int, float]:
    """Worker-side evaluation of one row; returns value plus charge deltas.

    Runs inside a pool worker on a pickled *copy* of the UDF.  Pickled
    copies carry the parent's counters over (see
    :meth:`~repro.udf.base.UDF.__getstate__`), so the worker reports the
    *delta* its evaluation added rather than absolute counters; the parent
    process folds the delta into the live UDF (exactly the
    ``absorb_charges`` contract of the sharded executor).  Module-level so
    it pickles by reference into the worker.
    """
    import numpy as np  # local: keep worker-side imports self-contained

    calls_before = udf.call_count
    time_before = udf.real_time
    value = udf(np.asarray(row, dtype=float))
    return float(value), udf.call_count - calls_before, udf.real_time - time_before


class SubprocessPoolTransport(EvaluationTransport):
    """Out-of-process evaluation backend: a bounded process pool.

    The adapter seam's reference backend: the same refinement window that
    rides threads or an event loop can ship each evaluation to a worker
    *process* — the shape of a UDF that must run outside the engine
    (native code that holds the GIL, a sandboxed model, a crashy C
    extension).  Each submission pickles the UDF into the worker (both
    :class:`~repro.udf.base.UDF` and :class:`~repro.udf.base.AsyncUDF`
    pickle cleanly; an async UDF evaluates through its blocking bridge),
    evaluates one row there, and returns the value together with the
    charge *delta*, which the parent folds into the live UDF — so charge
    accounting and the in-flight gauge read exactly as they do on the
    thread transport, and the window drivers' determinism contract carries
    over bit for bit (results are consumed by submission index, never by
    completion order).

    Retry note: a worker evaluates a pickled copy, so the installed
    :class:`~repro.udf.retry.RetryPolicy` retries *inside* the worker with
    a fresh per-copy budget window — the same per-copy semantics the
    process-pool sharding layer has always had.
    """

    name = "subprocess"

    def __init__(self) -> None:
        """Create a closed transport (the pool is allocated by ``open``)."""
        self._pool: Optional[ProcessPoolExecutor] = None

    def open(self, max_workers: int, label: str = "udf") -> None:
        """Start a bounded process pool (``label`` is advisory)."""
        del label  # worker processes cannot be usefully named
        if self._pool is not None:
            raise QueryError("subprocess transport is already open")
        if max_workers < 1:
            raise QueryError(f"max_workers must be positive, got {max_workers}")
        self._pool = ProcessPoolExecutor(max_workers=int(max_workers))

    def submit_rows(self, udf: UDF, X: np.ndarray) -> List[Future]:
        """One worker task per row; futures in row order.

        Each returned future resolves to the scalar value once the parent
        has absorbed the worker's charge delta — a consumer that sees the
        result also sees the call charged, the invariant the cost-model
        assertions rely on.
        """
        if self._pool is None:
            raise QueryError("subprocess transport is not open")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        futures: List[Future] = []
        for row in X:
            udf._enter_flight()
            outer: Future = Future()
            outer.set_running_or_notify_cancel()
            try:
                inner = self._pool.submit(_subprocess_evaluate, udf, row)
            except BaseException:
                udf._exit_flight()
                raise
            inner.add_done_callback(partial(self._relay, udf, outer))
            futures.append(outer)
        return futures

    @staticmethod
    def _relay(udf: UDF, outer: Future, inner: Future) -> None:
        """Absorb one worker result into the parent-side UDF and future."""
        try:
            value, calls, seconds = inner.result()
        except BaseException as exc:  # noqa: BLE001 - delivered via the future
            udf._exit_flight()
            outer.set_exception(exc)
        else:
            udf._charge(calls, seconds)
            udf._exit_flight()
            outer.set_result(value)

    def close(self) -> None:
        """Shut the pool down, joining its workers and manager thread."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _live_attrs(self) -> Tuple[str, ...]:
        return ("_pool",)


#: Transport registry: the named specs a plan (or a legacy ``transport=``
#: kwarg) may reference.  Values are factories, so every resolution gets a
#: fresh, closed instance.
TRANSPORTS: Dict[str, type] = {
    SerialTransport.name: SerialTransport,
    ThreadPoolTransport.name: ThreadPoolTransport,
    AsyncioTransport.name: AsyncioTransport,
    SubprocessPoolTransport.name: SubprocessPoolTransport,
}

#: What a ``transport=`` knob accepts: a registry name or an instance.
TransportSpec = Union[str, EvaluationTransport]

#: The default transport (the pre-refactor behaviour: a bounded pool).
DEFAULT_TRANSPORT = ThreadPoolTransport.name


def transport_name(spec: TransportSpec) -> str:
    """The registry name of a transport spec (validating it)."""
    if isinstance(spec, EvaluationTransport):
        return spec.name
    if isinstance(spec, str) and spec in TRANSPORTS:
        return spec
    raise PlanError(
        f"unknown transport {spec!r}; choose from {sorted(TRANSPORTS)} "
        "or pass an EvaluationTransport instance"
    )


def make_transport(spec: TransportSpec) -> EvaluationTransport:
    """Resolve a transport spec to a (closed) transport instance.

    A name builds a fresh instance from the registry; an instance is
    returned as-is (callers own its lifecycle through
    :meth:`EvaluationTransport.session`).
    """
    if isinstance(spec, EvaluationTransport):
        return spec
    return TRANSPORTS[transport_name(spec)]()
