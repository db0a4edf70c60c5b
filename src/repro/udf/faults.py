"""Deterministic fault injection for black-box UDFs.

The fault-tolerance layer needs failures it can *replay*: a chaos test that
fails randomly from the wall clock cannot assert bit-identity against a
fault-free run, and a flake it surfaces cannot be reproduced.  This module
injects failures from a :class:`FaultSchedule` — a pure function of a seed,
the evaluation point, and the per-point attempt number — so two runs with
the same schedule fail at exactly the same places, and a run that recovers
via retries produces exactly the values of a run that never failed.

:class:`FaultInjectingUDF` / :class:`FaultInjectingAsyncUDF` wrap a UDF so
scheduled attempts raise :class:`~repro.exceptions.TransientUDFError` (or,
opted in, :class:`~repro.exceptions.FatalUDFError`) *inside* the UDF's own
retry loop.  This exercises every execution path — serial, thread pool,
asyncio, process-pool shards — because the wrapper **is** a UDF and pickles
into workers with its schedule.  Injection never consumes the Monte-Carlo
random stream, so sampling trajectories are untouched by it.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Awaitable, Callable, Dict, Optional

import numpy as np

from repro.exceptions import FatalUDFError, TransientUDFError, UDFError
from repro.udf.base import UDF, AsyncUDF


def point_key(x: np.ndarray) -> bytes:
    """Canonical hashable key of an evaluation point (its float64 bytes)."""
    return np.ascontiguousarray(np.asarray(x, dtype=float)).tobytes()


class FaultSchedule:
    """A replayable failure schedule keyed by ``(point_key, attempt)``.

    Each evaluation of a point advances that point's private attempt
    counter; whether attempt ``i`` of point ``k`` fails is a pure hash draw
    of ``(seed, k, i)`` against ``rate`` — no wall clock, no shared RNG.
    Because counters are per point, interleaving evaluations of *different*
    points (thread pools, event loops) cannot perturb the schedule, and a
    retry of the same point deterministically advances to its next attempt.

    Parameters
    ----------
    rate:
        Marginal failure probability of each attempt, in ``[0, 1]``.
    seed:
        Schedule seed; same seed + same per-point call sequences = same
        failures.
    max_failures_per_point:
        Cap on injected failures per point, or ``None`` for no cap.  Set it
        to ``max_attempts - 1`` of the active retry policy to *guarantee*
        every point recovers within its attempts — the configuration the
        bit-identity smoke gate uses (independent per-attempt draws would
        otherwise exhaust retries with probability ``rate**max_attempts``
        per point).

    Notes
    -----
    Thread-safe; picklable (the lock is recreated, counters travel with the
    copy so a pool worker replays its shard's schedule from wherever the
    parent left that shard's points — in practice shards start fresh, since
    schedules are pickled before any evaluation).
    """

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        max_failures_per_point: Optional[int] = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise UDFError(f"fault rate must be within [0, 1], got {rate}")
        if max_failures_per_point is not None and max_failures_per_point < 0:
            raise UDFError("max_failures_per_point must be non-negative (or None)")
        self.rate = float(rate)
        self.seed = int(seed)
        self.max_failures_per_point = max_failures_per_point
        self._lock = threading.Lock()
        self._attempts: Dict[bytes, int] = {}
        self._failures: Dict[bytes, int] = {}
        self._attempts_total = 0
        self._injected_total = 0

    # -- pickling ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Drop the process-local lock (recreated on unpickle)."""
        with self._lock:
            state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Recreate the process-local lock."""
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- the schedule ----------------------------------------------------------------
    def _draw(self, key: bytes, attempt: int) -> float:
        """Deterministic uniform draw in ``[0, 1)`` for ``(key, attempt)``."""
        digest = hashlib.blake2b(digest_size=8)
        digest.update(self.seed.to_bytes(8, "little", signed=True))
        digest.update(attempt.to_bytes(8, "little"))
        digest.update(key)
        return int.from_bytes(digest.digest(), "little") / 2.0**64

    def should_fail(self, key: bytes) -> bool:
        """Advance ``key``'s attempt counter; ``True`` if this attempt fails."""
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            self._attempts_total += 1
            fail = self._draw(key, attempt) < self.rate
            if (
                fail
                and self.max_failures_per_point is not None
                and self._failures.get(key, 0) >= self.max_failures_per_point
            ):
                fail = False
            if fail:
                self._failures[key] = self._failures.get(key, 0) + 1
                self._injected_total += 1
            return fail

    @property
    def attempts_seen(self) -> int:
        """Total attempts the schedule has adjudicated."""
        with self._lock:
            return self._attempts_total

    @property
    def injected_failures(self) -> int:
        """Total failures the schedule has injected so far."""
        with self._lock:
            return self._injected_total


class _FaultyFunc:
    """Picklable blocking callable: scheduled failures, else the black box."""

    def __init__(
        self,
        inner: Callable[[np.ndarray], Any],
        schedule: FaultSchedule,
        name: str,
        fatal: bool,
    ) -> None:
        self._inner = inner
        self._schedule = schedule
        self._name = name
        self._fatal = fatal

    def __call__(self, x: np.ndarray) -> Any:
        if self._schedule.should_fail(point_key(x)):
            if self._fatal:
                raise FatalUDFError(f"{self._name}: injected fatal fault")
            raise TransientUDFError(f"{self._name}: injected transient fault")
        return self._inner(x)


class _FaultyCoroFunc:
    """Picklable coroutine callable twin of :class:`_FaultyFunc`."""

    def __init__(
        self,
        inner: Callable[[np.ndarray], Awaitable[float]],
        schedule: FaultSchedule,
        name: str,
        fatal: bool,
    ) -> None:
        self._inner = inner
        self._schedule = schedule
        self._name = name
        self._fatal = fatal

    async def __call__(self, x: np.ndarray) -> float:
        if self._schedule.should_fail(point_key(x)):
            if self._fatal:
                raise FatalUDFError(f"{self._name}: injected fatal fault")
            raise TransientUDFError(f"{self._name}: injected transient fault")
        return await self._inner(x)


class FaultInjectingUDF(UDF):
    """A drop-in UDF whose scheduled attempts raise typed failures.

    Wraps a blocking :class:`UDF`: same name (so per-UDF machinery like the
    serving circuit breaker keys identically), same dimension, domain,
    vectorisation and simulated cost — but each underlying call first asks
    the :class:`FaultSchedule` whether *this attempt of this point* fails.
    Injected failures raise **before** the black box runs (no value, no
    charge), exactly like a connection that never reached the service; the
    UDF retry loop then re-attempts per the installed policy.

    Parameters
    ----------
    inner:
        The UDF to wrap.  Must be a blocking UDF; wrap
        :class:`~repro.udf.base.AsyncUDF` with
        :class:`FaultInjectingAsyncUDF` instead.
    schedule:
        The deterministic failure schedule (shared: inspect it afterwards
        for :attr:`FaultSchedule.injected_failures`).
    fatal:
        Inject :class:`~repro.exceptions.FatalUDFError` (never retried)
        instead of :class:`~repro.exceptions.TransientUDFError`.
    """

    def __init__(self, inner: UDF, schedule: FaultSchedule, fatal: bool = False) -> None:
        if isinstance(inner, AsyncUDF):
            raise UDFError(
                "wrap a natively-async UDF with FaultInjectingAsyncUDF so the "
                "event-loop path is injected too"
            )
        self.schedule = schedule
        super().__init__(
            _FaultyFunc(inner._func, schedule, inner.name, fatal),
            inner.dimension,
            name=inner.name,
            vectorized=inner.vectorized,
            simulated_eval_time=inner.simulated_eval_time,
            domain=inner.domain,
        )


class FaultInjectingAsyncUDF(AsyncUDF):
    """The :class:`FaultInjectingUDF` twin for natively-async UDFs.

    Injection happens inside the coroutine, so both the awaited path
    (:meth:`~repro.udf.base.AsyncUDF.evaluate_async`, ridden by the asyncio
    transport) and the blocking bridge observe the same schedule.
    """

    def __init__(
        self, inner: AsyncUDF, schedule: FaultSchedule, fatal: bool = False
    ) -> None:
        self.schedule = schedule
        super().__init__(
            _FaultyCoroFunc(inner._coro_func, schedule, inner.name, fatal),
            inner.dimension,
            name=inner.name,
            simulated_eval_time=inner.simulated_eval_time,
            domain=inner.domain,
        )
