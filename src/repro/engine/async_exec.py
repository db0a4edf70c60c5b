"""Asynchronous overlapped UDF evaluation for the OLGAPRO refinement loop.

The refinement loop is the engine's only blocking I/O-like step: every
iteration evaluates the black-box UDF and waits for the value before doing
any further GP work.  Batching (PR 1) already exposed those evaluations as a
queue — this module drains that queue *concurrently*.

:class:`AsyncRefinementExecutor` wraps a
:class:`~repro.engine.executor.UDFExecutionEngine` exactly like
:class:`~repro.engine.batch.BatchExecutor` does, but installs an
:class:`AsyncEvaluationDriver` on the UDF's OLGAPRO processor for the
duration of the computation.  The driver replaces the serial refinement loop
with a *windowed pipeline*:

1. select the ``async_inflight`` highest-variance distinct Monte-Carlo
   samples (the stable speculative top-k rule of
   :func:`~repro.core.olgapro.select_top_k_distinct` — the same selection
   PR 2's ``speculative_k`` uses),
2. submit all of them at once through the configured
   :class:`~repro.engine.transport.EvaluationTransport` — a bounded thread
   pool by default, an event loop for natively-async UDFs — so their
   black-box latencies overlap each other,
3. while later results are still in flight, absorb the earlier ones in
   **submission order** in deterministic chunks (doubling sizes ``1, 1, 2,
   4, ...``) through the blocked
   :func:`~repro.gp.linalg.block_inverse_update_multi` update, re-checking
   the error bound after each chunk — GP work overlaps in-flight UDF calls,
4. roll a chunk back via the O(1) emulator snapshot when it makes the bound
   strictly worse (committing only its best candidate, whose observation was
   already paid for), exactly like the speculative loop, and
5. stop as soon as the bound fits: results still in flight are *discarded*
   (waited for and charged — the UDF calls really happened — but never
   absorbed).

Determinism contract
--------------------
Completion order does not influence the result.  Results are consumed by
submission index (out-of-order completions simply buffer inside their
future), absorption chunk boundaries depend only on the window size, and
each chunk's absorb is *fenced* on the emulator snapshot it speculated
against (:meth:`~repro.core.emulator.GPEmulator.absorb_observations` rejects
a stale fence).  Under a fixed seed the async pipeline is therefore bitwise
reproducible for any thread scheduling, and ``async_inflight=1`` bypasses
the driver entirely — it *is* the serial batched path, bit for bit.

Like ``speculative_k``, a window absorbs up to ``async_inflight`` points per
bound re-check, so the refinement trajectory (and the output distribution)
differs from the serial loop at ``async_inflight > 1`` while honouring the
same (ε, δ) error-bound guarantee.  The win is wall-clock: with a UDF whose
calls cost real time (a remote service, an expensive simulation —
:class:`~repro.udf.synthetic.RealCostFunction` in the benchmarks), a window
of ``k`` calls costs roughly one latency instead of ``k``.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

import numpy as np

from repro.core.filtering import SelectionPredicate
from repro.core.hybrid import HybridExecutor
from repro.core.olgapro import OLGAPRO, select_top_k_distinct
from repro.distributions.base import Distribution
from repro.engine.executor import ComputedOutput, UDFExecutionEngine
from repro.engine.transport import EvaluationTransport, make_transport
from repro.exceptions import QueryError
from repro.index.bounding_box import BoundingBox
from repro.timing import PhaseTimings
from repro.udf.base import UDF

if TYPE_CHECKING:  # plan.py imports this module
    from repro.engine.batch import BatchExecutor
    from repro.engine.plan import ExecutionPlan

#: Default bound on concurrently in-flight UDF evaluations: deep enough to
#: hide realistic black-box latency inside one refinement window, shallow
#: enough that speculative overshoot stays small.
DEFAULT_ASYNC_INFLIGHT = 8


def chunk_schedule(window: int) -> Iterator[tuple[int, int]]:
    """Deterministic absorption chunk boundaries for a window of ``window``.

    Yields ``(start, stop)`` slices with doubling sizes ``1, 1, 2, 4, ...``
    (the last chunk truncated).  The front-loaded small chunks give the
    pipeline early bound re-checks — absorbed while later candidates are
    still in flight — and the doubling keeps the number of re-checks per
    window logarithmic, preserving the speculative loop's factorization
    savings.  The schedule depends only on ``window``, never on completion
    timing; this is what makes out-of-order completions invisible.
    """
    start = 0
    size = 1
    first = True
    while start < window:
        stop = min(start + size, window)
        yield start, stop
        start = stop
        if first:
            first = False  # the second chunk is also a single point
        else:
            size *= 2


class AsyncEvaluationDriver:
    """Evaluation driver that overlaps in-flight UDF calls with GP work.

    Installed on an :class:`~repro.core.olgapro.OLGAPRO` processor by
    :class:`AsyncRefinementExecutor` (see the module docstring for the
    pipeline and its determinism contract).  The driver owns no state beyond
    the executor handle and the window bound, so one instance can serve
    every tuple of a computation.
    """

    def __init__(
        self, executor: Union[ThreadPoolExecutor, EvaluationTransport], inflight: int
    ):
        """Bind the driver to an evaluation carrier and a window bound.

        Parameters
        ----------
        executor:
            What carries the black-box calls: a thread pool, or any
            :class:`~repro.engine.transport.EvaluationTransport` (the
            submission goes through :meth:`~repro.udf.base.UDF
            .submit_rows`, which dispatches on the carrier type) — its
            concurrency should be at least ``inflight`` or submissions
            queue.
        inflight:
            Maximum UDF evaluations in flight per refinement window.
        """
        if inflight < 1:
            raise QueryError(f"inflight must be positive, got {inflight}")
        self.executor = executor
        self.inflight = int(inflight)

    def engaged(self, olgapro: OLGAPRO) -> bool:
        """Whether this driver should take over ``olgapro``'s refinement loop.

        ``inflight=1`` reports unengaged: one call in flight cannot overlap
        anything, and falling through to the stock loop keeps the path
        bit-identical to serial batched execution.
        """
        del olgapro
        return self.inflight > 1

    def tune(
        self,
        olgapro: OLGAPRO,
        samples: np.ndarray,
        box: BoundingBox,
        rng: np.random.Generator,
        envelope,
        bound: float,
        bound_is_fresh: bool = True,
    ):
        """Run the overlapped refinement pipeline for one tuple.

        Mirrors the contract of ``OLGAPRO._tune_serial`` /
        ``_tune_speculative``: returns ``(envelope, bound, points_added,
        converged)``.  ``rng`` is accepted for interface parity but never
        consumed — candidate selection is the deterministic top-k rule, so
        Monte-Carlo sampling stays the only consumer of the random stream.

        Raises
        ------
        UDFError
            When an evaluation that the pipeline needs fails or returns a
            non-finite value.  Failures of *discarded* speculative calls
            (submitted but no longer needed once the bound fits) are
            swallowed: serially those calls would never have happened.
        """
        del rng  # selection is deterministic; see the docstring
        epsilon_gp = olgapro.budget.epsilon_gp
        points_added = 0
        inference = None
        while bound > epsilon_gp:
            capacity = olgapro._refinement_capacity(points_added)
            if capacity <= 0:
                return envelope, bound, points_added, False
            if inference is None:
                inference, envelope, bound, realigned = olgapro._selection_inference(
                    samples, box, envelope, bound, bound_is_fresh
                )
                if realigned:
                    bound_is_fresh = True
                    continue
            window = min(self.inflight, capacity, samples.shape[0])
            order = select_top_k_distinct(samples, inference.stds, window)
            window = len(order)
            if window == 1:
                olgapro._absorb_candidate(samples[order[0]])
                points_added += 1
                inference, envelope, bound = olgapro._recheck(samples, box)
                continue

            futures = self._submit_window(olgapro, samples[order])
            olgapro.refinement_evaluations += window
            try:
                y = np.empty(window)
                for start, stop in chunk_schedule(window):
                    # The fence is captured *before* waiting: the chunk's
                    # results complete (on worker threads, in any order)
                    # while the snapshot they speculate against is live, and
                    # the absorb below rejects the chunk if anything mutated
                    # the model during that window.
                    fence = olgapro.emulator.snapshot()
                    # In-order waits: a result completing out of order just
                    # sits in its future until its submission slot is due.
                    for i in range(start, stop):
                        y[i] = futures[i].result()
                    bound_before = bound
                    olgapro.emulator.absorb_observations(
                        samples[order[start:stop]], y[start:stop], fence=fence
                    )
                    inference, envelope, bound = olgapro._recheck(samples, box)
                    if bound > bound_before and stop - start > 1:
                        # The chunk overshot: the shared rollback rule keeps
                        # only its best candidate (see OLGAPRO._rollback_to_best).
                        # A single-point chunk is exempt — rolling it back and
                        # re-committing the same point would rebuild the
                        # identical state at the cost of a wasted O(n^2)
                        # update and recheck (the serial rule keeps it too).
                        olgapro._rollback_to_best(
                            fence, samples[order[start : start + 1]], y[start : start + 1]
                        )
                        points_added += 1
                        inference, envelope, bound = olgapro._recheck(samples, box)
                    else:
                        points_added += stop - start
                    if bound <= epsilon_gp:
                        break
            finally:
                # Charge accounting stays deterministic: every submitted
                # evaluation completes (and is charged) before the tuple
                # finishes, whether its result was absorbed or discarded.
                # A transport carrier drains through its own settle step;
                # a raw pool settles future by future.
                if isinstance(self.executor, EvaluationTransport):
                    self.executor.drain(futures)
                else:
                    for future in futures:
                        _settle(future)
        return envelope, bound, points_added, True

    def _submit_window(self, olgapro: OLGAPRO, X: np.ndarray) -> list[Future]:
        """Dispatch one refinement window's evaluations, one future per row.

        Overridable seam: the base driver submits every row to the thread
        pool; the cross-tuple pipeline driver
        (:class:`~repro.engine.pipeline.PipelineEvaluationDriver`) first
        consults its speculative value pool so evaluations prefetched while
        earlier tuples refined are reused instead of re-paid.
        """
        return olgapro.udf.submit_rows(self.executor, X)


def _settle(future: Future) -> None:
    """Wait for a future, swallowing its exception (discarded speculation)."""
    future.exception()


class AsyncRefinementExecutor:
    """Batched execution with the refinement loop's UDF calls overlapped.

    The asynchronous sibling of :class:`~repro.engine.batch.BatchExecutor`
    (PR 1) and :class:`~repro.engine.parallel.ParallelExecutor` (PR 2): same
    ``compute_batch`` / ``compute_batch_with_predicate`` surface, same
    engine sharing, but while a tuple refines, up to ``inflight`` black-box
    evaluations run concurrently on a bounded thread pool.  See the module
    docstring for the pipeline and the determinism contract.

    Parameters
    ----------
    engine:
        The execution engine whose per-UDF processors do the work.  The
        ``"mc"`` strategy has no refinement loop, so it runs the plain
        batched path unchanged.
    plan:
        The :class:`~repro.engine.plan.ExecutionPlan` this executor was
        resolved from.  ``async_inflight`` is the refinement window (``1``
        disables overlap entirely and is bit-identical to
        :class:`BatchExecutor` under the same seed), ``transport`` how the
        window's evaluations reach the black box — opened per computation
        and closed on every exit path, so the executor itself stays
        picklable and reusable — and :meth:`~repro.engine.plan
        .ExecutionPlan.inner` the chunk pipeline underneath.

    Raises
    ------
    QueryError
        From a compute call, on a UDF the transport cannot carry or when a
        driver is already installed on the target processor (nested async
        execution).
    """

    def __init__(self, engine: UDFExecutionEngine, plan: "ExecutionPlan"):
        """Bind the engine and the plan (no evaluation resource yet)."""
        self.engine = engine
        self.plan = plan
        self.inflight = plan.async_inflight
        self.batch_size = plan.chunk_size
        self.transport = plan.transport
        self.columnar = plan.storage == "columnar"
        #: Per-phase wall-clock of the underlying batched pipeline.
        self.timings = PhaseTimings()

    # -- public API ---------------------------------------------------------------
    def compute_batch(
        self, udf: UDF, input_distributions: Sequence[Distribution]
    ) -> list[ComputedOutput]:
        """Evaluate ``udf`` on every tuple with overlapped refinement.

        Returns one :class:`~repro.engine.executor.ComputedOutput` per input
        distribution, in input order.
        """
        return self._run(udf, list(input_distributions), predicate=None)

    def compute_batch_with_predicate(
        self,
        udf: UDF,
        input_distributions: Sequence[Distribution],
        predicate: SelectionPredicate,
    ) -> list[ComputedOutput]:
        """Predicate (online-filtering) evaluation with overlapped refinement.

        The filtering decisions stay tuple-sequential (see
        :meth:`BatchExecutor.compute_batch_with_predicate`); the overlap
        applies inside each tuple's pilot and full refinement loops.
        """
        return self._run(udf, list(input_distributions), predicate=predicate)

    # -- internals ----------------------------------------------------------------
    def _run(
        self,
        udf: UDF,
        distributions: list[Distribution],
        predicate: Optional[SelectionPredicate],
    ) -> list[ComputedOutput]:
        """Install the driver (when it can engage), delegate, clean up."""
        if not distributions:
            return []
        # Fail fast on an incompatible UDF/transport pair even on the
        # degenerate paths (inflight=1, mc) that never open the transport:
        # a misconfiguration must not become visible only once the user
        # raises the window.
        transport = make_transport(self.transport)
        transport.accepts(udf)
        batch = self.plan.inner().resolve(self.engine)
        try:
            if self.inflight == 1 or self.engine.strategy == "mc":
                return self._delegate(batch, udf, distributions, predicate)
            olgapro = self._olgapro_for(udf)
            if olgapro.evaluation_driver is not None:
                raise QueryError(
                    f"processor for UDF {udf.name!r} already has an evaluation "
                    "driver installed (nested async execution is not supported)"
                )
            # The session closes the transport on *every* exit path — a
            # QueryError mid-computation must not leak pool or event-loop
            # threads.
            with transport.session(self.inflight, label=udf.name) as carrier:
                olgapro.evaluation_driver = AsyncEvaluationDriver(carrier, self.inflight)
                try:
                    return self._delegate(batch, udf, distributions, predicate)
                finally:
                    olgapro.evaluation_driver = None
        finally:
            self.timings.merge(batch.timings)

    def _delegate(
        self,
        batch: "BatchExecutor",
        udf: UDF,
        distributions: list[Distribution],
        predicate: Optional[SelectionPredicate],
    ) -> list[ComputedOutput]:
        """Run the (driver-aware) batched pipeline."""
        if predicate is None:
            return batch.compute_batch(udf, distributions)
        return batch.compute_batch_with_predicate(udf, distributions, predicate)

    def _olgapro_for(self, udf: UDF) -> OLGAPRO:
        """The OLGAPRO processor behind ``udf`` (created if still cold)."""
        processor = self.engine._processor_for(udf)
        if isinstance(processor, HybridExecutor):
            return processor._olgapro
        return processor
