"""The two carriers of a refinement window's UDF evaluations.

The overlapped execution layers (:mod:`repro.engine.async_exec`,
:mod:`repro.engine.pipeline`) treat the UDF as a black box whose *call
latency* dominates.  The one choice the engine makes about how those calls
are carried is whether a window's calls overlap; where they do, a carrier
takes them to the black box.

:class:`EvaluationTransport` is that seam.  A carrier owns the resource an
evaluation rides on (a thread pool, an event loop thread) and exposes one
primitive — :meth:`~EvaluationTransport.submit_rows`, returning one
:class:`~concurrent.futures.Future` per input row, **in row order** — plus
an explicit :meth:`~EvaluationTransport.open` /
:meth:`~EvaluationTransport.close` lifecycle.  Everything above the carrier
(the window driver, the speculative value pool, the fence and rollback
machinery, charge accounting) consumes futures by submission index, so the
determinism contracts of the window and the lookahead stage hold bit for
bit on either carrier.

Two carriers ship, one per kind of black box, named by
:attr:`ExecutionPlan.transport <repro.engine.plan.ExecutionPlan.transport>`:

* ``"threads"`` — :class:`ThreadPoolTransport`, a bounded pool; rows are
  submitted through :meth:`~repro.udf.base.UDF.submit_rows` (which carries
  the in-flight gauge and charge accounting).  The only carrier for a
  blocking UDF.
* ``"asyncio"`` — :class:`AsyncioTransport`, an event loop running on a
  dedicated (non-daemon, always-joined) thread; rows of an
  :class:`~repro.udf.base.AsyncUDF` are scheduled as coroutines, so a
  window of ``k`` awaited latencies costs roughly one without ``k``
  threads.  Blocking callables would stall the loop, so this carrier
  requires an ``AsyncUDF``.

Lifecycle and safety contract
-----------------------------
A carrier allocates nothing until :meth:`~EvaluationTransport.open`, and
:meth:`~EvaluationTransport.close` releases the resource — joining every
thread the carrier started, including the event loop thread, so a failed
query (:class:`~repro.exceptions.QueryError` mid-computation) never leaks
non-daemon threads.  The chunk executor builds a fresh carrier per
computation from the plan's name and drives it through
:meth:`~EvaluationTransport.session`, whose ``finally`` closes on every
exit path.
"""

from __future__ import annotations

import abc
import asyncio
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.exceptions import QueryError, TransportDrainTimeoutError
from repro.udf.base import UDF, AsyncUDF


class EvaluationTransport(abc.ABC):
    """How a refinement window's UDF evaluations reach the black box.

    Subclasses implement the three lifecycle/submission primitives; the
    base class provides the :meth:`session` context manager the executors
    use, the settle step and the UDF-compatibility check.  A carrier serves
    one computation at a time (the executors open it per compute call), but
    is reusable: ``open`` after ``close`` starts a fresh resource.
    """

    #: The carrier's key in :data:`TRANSPORTS` — the name a plan carries
    #: (``"threads"`` / ``"asyncio"``).
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

        The thread pool accepts every UDF; the event loop needs a
        natively-async one and overrides this so executors can fail fast, before any resource is
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


class ThreadPoolTransport(EvaluationTransport):
    """Bounded thread pool carrying blocking black-box calls.

    The default carrier, and the only one for a blocking UDF.  Submission
    delegates to :meth:`~repro.udf.base.UDF.submit_rows`, which owns the
    in-flight gauge and thread-safe charge accounting.
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


#: The carriers a plan may name; each resolution builds a fresh, closed one.
TRANSPORTS: Dict[str, type] = {
    ThreadPoolTransport.name: ThreadPoolTransport,
    AsyncioTransport.name: AsyncioTransport,
}

#: The carrier of a plan that names none: the bounded pool, which carries
#: every UDF.
DEFAULT_TRANSPORT = ThreadPoolTransport.name
