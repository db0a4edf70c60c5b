"""The refinement *window*: overlapped UDF evaluation for the one OLGAPRO loop.

The refinement loop (:meth:`OLGAPRO._tune_until_bounded
<repro.core.olgapro.OLGAPRO._tune_until_bounded>`) is the engine's only
blocking I/O-like step: every iteration evaluates the black-box UDF and
waits for the values before doing any further GP work.  At a plan window of
1 (``async_inflight`` unset or 1) with no lookahead it evaluates inline.
Otherwise the chunk executor (:class:`~repro.engine.batch.BatchExecutor`)
opens the plan's :class:`~repro.engine.transport.EvaluationTransport` for
the computation and installs an :class:`AsyncEvaluationDriver` on the UDF's
processor, and every value the processor needs comes through it — the
initial design (all rows at once), each single refinement point, and each
window.  The loop itself does not change, only where a window's values come
from and in which slices they are absorbed:

1. the loop selects the ``window`` highest-variance distinct Monte-Carlo
   samples (:func:`~repro.core.olgapro.select_top_k_distinct`),
2. :meth:`AsyncEvaluationDriver.submit` dispatches all of them at once
   through the transport — a bounded thread pool by default, an event loop
   for natively-async UDFs — so their black-box latencies overlap,
3. the loop absorbs the results in **submission order** in the deterministic
   slices of :func:`chunk_schedule` (doubling sizes ``1, 1, 2, 4, ...``),
   re-checking the error bound after each slice — GP work overlaps the
   calls still in flight — and rolling an overshooting slice back to its
   best candidate,
4. as soon as the bound fits, :meth:`AsyncEvaluationDriver.drain` waits out
   the results still in flight: they are *discarded* (charged — the UDF
   calls really happened — but never absorbed).

Determinism contract
--------------------
Completion order does not influence the result.  Results are consumed by
submission index (out-of-order completions simply buffer inside their
future), slice boundaries depend only on the window size, and each slice's
absorb is *fenced* on the emulator snapshot it speculated against
(:meth:`~repro.core.emulator.GPEmulator.absorb_observations` rejects a
stale fence).  Under a fixed seed a windowed run is therefore bitwise
reproducible for any thread scheduling, and a window of 1 with no
lookahead installs no driver and opens no transport — it *is* the serial
batched path.

A window absorbs up to ``async_inflight`` points per bound re-check, so the
refinement trajectory (and the output distribution) differs from window 1
while honouring the same (ε, δ) error-bound guarantee.  The win is
wall-clock: with a UDF whose calls cost real time (a remote service, an
expensive simulation — :class:`~repro.udf.synthetic.RealCostFunction` in the
benchmarks), a window of ``k`` calls costs roughly one latency instead of
``k``.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import TYPE_CHECKING, Any, Iterator, Optional

import numpy as np

from repro.engine.transport import EvaluationTransport
from repro.udf.base import UDF

if TYPE_CHECKING:
    from repro.engine.pipeline import SpeculativeValuePool

#: Default bound on concurrently in-flight UDF evaluations: deep enough to
#: hide realistic black-box latency inside one refinement window, shallow
#: enough that speculative overshoot stays small.
DEFAULT_ASYNC_INFLIGHT = 8


def chunk_schedule(window: int) -> Iterator[tuple[int, int]]:
    """Deterministic absorption slice boundaries for a window of ``window``.

    Yields ``(start, stop)`` slices with doubling sizes ``1, 1, 2, 4, ...``
    (the last slice truncated).  The front-loaded small slices give the
    loop early bound re-checks — absorbed while later candidates are still
    in flight — and the doubling keeps the number of re-checks per window
    logarithmic, preserving the blocked update's factorization savings.
    The schedule depends only on ``window``, never on completion timing;
    this is what makes out-of-order completions invisible.
    """
    start = 0
    size = 1
    first = True
    while start < window:
        stop = min(start + size, window)
        yield start, stop
        start = stop
        if first:
            first = False  # the second slice is also a single point
        else:
            size *= 2


class AsyncEvaluationDriver:
    """Submit UDF values, drain them — the transport side of the loop.

    Installed as :attr:`OLGAPRO.evaluation_driver
    <repro.core.olgapro.OLGAPRO.evaluation_driver>` for the duration of one
    computation, whenever the chunk executor opens a transport session.
    It carries every value the processor needs meanwhile — windows, single
    points, the initial design — and owns no loop and no state beyond the
    open transport and the window bound, so one instance serves every tuple.
    """

    schedule = staticmethod(chunk_schedule)

    def __init__(self, carrier: EvaluationTransport, window: int):
        """Bind the open transport (its concurrency should be at least
        ``window``, or submissions queue) and the window bound."""
        self.carrier = carrier
        self.window = window
        #: Set per chunk by the lookahead stage: refinement values then go
        #: through its deduplicated pool, so a row some speculative walk
        #: already prefetched reuses the paid-for future instead of a fresh
        #: call.  The chunk's initial design is submitted before the pool
        #: is set, so it never counts as speculation.
        self.pool: Optional["SpeculativeValuePool"] = None

    def submit(self, udf: UDF, X: np.ndarray) -> list[Future]:
        """Dispatch evaluations of the rows of ``X``: one future per row, in row order."""
        if self.pool is not None:
            return [self.pool.fetch(row) for row in X]
        return self.carrier.submit_rows(udf, X)

    def drain(self, futures: list[Future]) -> None:
        """Wait out a window: every submitted evaluation completes (and is
        charged) before its tuple finishes, absorbed or discarded — failures
        of discarded ones are swallowed (serially they never happened)."""
        self.carrier.drain(futures)


def __getattr__(name: str) -> Any:
    """``AsyncRefinementExecutor``: the pre-PR-14 name of the one chunk executor.

    Kept importable because external tooling (``perfbench/tracing.py``)
    binds it by module and name; nothing in this package selects on it.
    """
    if name == "AsyncRefinementExecutor":
        from repro.engine.batch import BatchExecutor

        return BatchExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
