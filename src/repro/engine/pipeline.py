"""Cross-tuple pipelined refinement: a dependency-aware stage scheduler.

PR 3's :class:`~repro.engine.async_exec.AsyncRefinementExecutor` overlaps
black-box UDF calls *within* one tuple's refinement, but the stages of
consecutive tuples still serialise: the sampling and first GP inference of
tuple *i + 1* wait behind the tail of tuple *i*'s refinement windows.  This
module closes that gap.  :class:`PipelinedExecutor` runs a chunk of tuples
as a small dependency DAG of stages

    sample  →  retrieve / infer  →  refine (UDF windows)  →  bound-check

over **one shared bounded thread pool**:

1. **sample** — the Monte-Carlo input samples of the whole chunk are drawn
   up front, in tuple order, so the shared random stream is consumed exactly
   as the serial batched path consumes it;
2. **retrieve / infer** — while tuple *i* refines, the initial cached GP
   inference (retrieval, envelope, error bound) of tuples *i + 1 … i +
   lookahead* runs *speculatively* on the pool against a snapshot view of
   the emulator, and the highest-variance candidates of each speculated
   tuple's first refinement window are **prefetched**: their UDF evaluations
   are submitted immediately, so the black-box latency of tuple *i + 1*'s
   first window hides under tuple *i*'s windows;
3. **refine** — committed strictly in tuple-submission order on the
   coordinating thread: the refinement windows consult the speculative value
   pool first (the UDF is deterministic, so a prefetched observation is the
   observation) and only pay for fresh evaluations on a miss;
4. **bound-check / commit** — the tuple's envelope, bound and retraining
   decision are finalised before the next tuple commits.

Determinism contract
--------------------
Speculation is *fenced* on the GP state version, exactly like PR 3's
within-window absorption: a speculative inference records the
:attr:`~repro.gp.regression.GaussianProcess.version` it was computed
against, and at commit time it is used only if the model has not moved
since.  A tuple whose fence went stale re-runs its inference against the
updated emulator — bitwise the computation the serial batched path performs
at that point.  All model mutations happen on the coordinating thread, in
tuple-submission order, so

* results are invariant to completion order and thread scheduling (a
  prefetched value equals the freshly evaluated one; a stale speculation is
  recomputed, never absorbed),
* ``pipeline_lookahead=1`` bypasses the scheduler entirely and **is** the
  serial batched path (or, with ``inflight > 1``, the PR 3 async path), bit
  for bit, and
* at ``lookahead > 1`` the committed refinement trajectory — and therefore
  the output distributions and error bounds — is bitwise the one the
  within-tuple async path (:class:`AsyncRefinementExecutor` with the same
  window) produces; only wall-clock and the *total* UDF call count change
  (unconsumed prefetches are paid for and discarded, like PR 3's discarded
  speculation; :attr:`PipelinedExecutor.last_wasted_calls` reports them).

Cost model
----------
Prefetched-but-unused evaluations are charged: the calls really happened.
Per-tuple ``udf_calls`` counts the evaluations each tuple's refinement
*consumed* (window submissions plus single-point absorptions — the same
number the async path charges per tuple), while per-tuple ``charged_time``
is attribution-approximate under cross-tuple overlap (evaluations for
several tuples complete concurrently); the UDF's own counters stay exact in
aggregate.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.core.emulator import EmulatorSnapshot
from repro.core.filtering import SelectionPredicate
from repro.core.hybrid import HybridExecutor
from repro.core.local_inference import BatchKernelCache, global_inference
from repro.core.olgapro import OLGAPRO, OnlineTupleResult, select_top_k_distinct
from repro.distributions.base import Distribution
from repro.engine.async_exec import DEFAULT_ASYNC_INFLIGHT, AsyncEvaluationDriver
from repro.engine.batch import iter_batches, mc_chunk, online_result_to_output
from repro.engine.executor import ComputedOutput, UDFExecutionEngine
from repro.engine.transport import EvaluationTransport, make_transport
from repro.exceptions import QueryError
from repro.gp.regression import GaussianProcess
from repro.index.bounding_box import BoundingBox
from repro.timing import PhaseTimings
from repro.udf.base import UDF

if TYPE_CHECKING:  # plan.py imports this module
    from repro.engine.plan import ExecutionPlan


class SpeculativeValuePool:
    """Point-keyed store of speculatively submitted UDF evaluations.

    Entries are keyed by the raw bytes of the evaluation point, so a
    prefetched observation is found again however the committing refinement
    arrives at the same candidate.  Submissions dedupe atomically (two
    speculative stages racing to prefetch the same point charge exactly one
    evaluation), claims happen only on the coordinating thread, and
    :meth:`settle` waits out every outstanding future so charge accounting
    is complete — and deterministic — before a chunk finishes.
    """

    def __init__(self, udf: UDF, executor: Union[ThreadPoolExecutor, EvaluationTransport]):
        self.udf = udf
        self.executor = executor
        self._lock = threading.Lock()
        self._futures: dict[bytes, Future] = {}
        self._claimed: set[bytes] = set()
        self._prefetched: set[bytes] = set()
        #: Evaluations submitted through the pool (each charged exactly
        #: once) — speculative prefetches *and* the committing refinement's
        #: own fetch-misses.
        self.submitted = 0

    def _get_or_submit(self, row: np.ndarray) -> tuple[bytes, Future]:
        """Atomic lookup-or-submit for one point (exactly one charge per key)."""
        key = row.tobytes()
        with self._lock:
            future = self._futures.get(key)
            if future is None:
                future = self.udf.submit_rows(self.executor, row[None, :])[0]
                self._futures[key] = future
                self.submitted += 1
            return key, future

    def prefetch(self, X: np.ndarray) -> list[Future]:
        """Speculatively submit evaluations for the rows of ``X``.

        Returns one future per row, in row order; a row whose evaluation is
        already pooled gets the existing future, so repeated prefetches
        never double-charge.  The check-and-submit is atomic under the pool
        lock — a speculative walk and a committing refinement racing to the
        same point charge exactly one evaluation, which keeps the total call
        count deterministic however threads interleave.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        futures: list[Future] = []
        for row in X:
            key, future = self._get_or_submit(row)
            with self._lock:
                # Only keys this walk (or a sibling) *paid for ahead of any
                # consumer* count as speculative; a key first submitted by a
                # committing fetch-miss stays attributed to the commit path.
                if key not in self._claimed:
                    self._prefetched.add(key)
            futures.append(future)
        return futures

    def fetch(self, x: np.ndarray) -> Future:
        """Consume the evaluation of ``x``: pooled if prefetched, fresh otherwise.

        Every evaluation a committing refinement needs goes through here, so
        whether a speculative walk got to the point first only decides *who
        paid* — never whether the point is paid for twice.  The key is
        marked consumed for the waste accounting.
        """
        key, future = self._get_or_submit(np.asarray(x, dtype=float))
        with self._lock:
            self._claimed.add(key)
        return future

    def fetch_value(self, x: np.ndarray) -> float:
        """Blocking :meth:`fetch`, installed as the processor's ``value_source``.

        Routes the single-point refinement paths (the serial Algorithm-5
        loop, the speculative ``k == 1`` branch) through the pool as well,
        so prefetched singles are reused and fresh singles stay
        deduplicated against in-flight speculation.
        """
        return float(self.fetch(x).result())

    @property
    def prefetched(self) -> int:
        """Evaluations genuinely prefetched ahead of any consumer."""
        with self._lock:
            return len(self._prefetched)

    @property
    def wasted(self) -> int:
        """Prefetched evaluations never consumed by any tuple's refinement."""
        with self._lock:
            return len(self._prefetched - self._claimed)

    def settle(self) -> None:
        """Wait for every outstanding evaluation, swallowing failures.

        Unclaimed speculation mirrors PR 3's discarded speculation: the
        calls are paid for (the black box really ran) but never absorbed,
        and their failures are irrelevant — serially they would never have
        happened.
        """
        for future in self._futures.values():
            future.exception()


class PipelineEvaluationDriver(AsyncEvaluationDriver):
    """Window driver that consults the speculative value pool first.

    Behaves exactly like :class:`AsyncEvaluationDriver` — same windows, same
    deterministic chunk schedule, same fenced absorption — except that each
    window row already prefetched by a speculative stage reuses the paid-for
    future instead of submitting a fresh evaluation.  Because the UDF is
    deterministic, the absorbed values are identical either way, so the
    refinement trajectory is bitwise the async driver's.
    """

    def __init__(
        self,
        executor: Union[ThreadPoolExecutor, EvaluationTransport],
        inflight: int,
        pool: SpeculativeValuePool,
    ):
        super().__init__(executor, inflight)
        self.pool = pool

    def _submit_window(self, olgapro: OLGAPRO, X: np.ndarray) -> list[Future]:
        """One future per row, all routed through the pool.

        A prefetched row reuses the paid-for future; a miss submits fresh —
        through the same deduplicated pool, so a speculative walk arriving
        at the point later never double-charges it.
        """
        del olgapro  # the pool owns the UDF handle
        return [self.pool.fetch(row) for row in X]


@dataclass
class _SpeculationResult:
    """What one speculative retrieve/infer stage hands to the commit loop."""

    inference: object = None
    envelope: object = None
    bound: float = float("nan")
    #: Exception raised inside the stage; treated exactly like a stale
    #: fence (the commit loop recomputes), because a speculative read racing
    #: a model mutation may fail where the settled recompute succeeds.
    error: Optional[BaseException] = None
    #: Pool-thread wall-clock the stage spent; recorded into the executor's
    #: timings by the *coordinating* thread when the stage is reaped, so the
    #: (unsynchronised) timing accumulator is never written concurrently.
    seconds: float = 0.0


@dataclass
class _PendingTuple:
    """Bookkeeping for a submitted-but-not-committed tuple."""

    index: int
    fence: EmulatorSnapshot
    future: Future

    @property
    def fence_n(self) -> int:
        """Training-set size the speculation was fenced at."""
        return self.fence.gp_state.n_training


def _gp_view(gp: GaussianProcess, fence: EmulatorSnapshot) -> GaussianProcess:
    """Read-only clone of ``gp`` frozen at ``fence``.

    O(1): :meth:`~repro.gp.regression.GaussianProcess.restore` rebinds the
    snapshot's shared buffers (the GP never mutates arrays in place), so the
    view reproduces the fenced state bitwise without copying, and stays
    consistent however the live model evolves — this is what lets a
    speculative stage run on a pool thread while the coordinating thread
    keeps refining earlier tuples.
    """
    view = GaussianProcess(
        kernel=gp.kernel.clone(),
        noise_variance=gp.noise_variance,
        refresh_every=gp.refresh_every,
        center_targets=gp.center_targets,
    )
    view.restore(fence.gp_state)
    return view


class PipelinedExecutor:
    """Batched execution with refinement pipelined *across* tuples.

    The cross-tuple sibling of :class:`~repro.engine.batch.BatchExecutor`
    (PR 1), :class:`~repro.engine.parallel.ParallelExecutor` (PR 2) and
    :class:`~repro.engine.async_exec.AsyncRefinementExecutor` (PR 3): same
    ``compute_batch`` / ``compute_batch_with_predicate`` surface, same
    engine sharing, but while tuple *i* refines, the sampling, initial
    inference and first-window UDF evaluations of tuples *i + 1 … i +
    lookahead* already run on a shared bounded pool.  See the module
    docstring for the stage DAG and the determinism contract.

    Parameters
    ----------
    engine:
        The execution engine whose per-UDF processors do the work.  The
        ``"mc"`` strategy has no refinement loop, so it runs the plain
        batched path unchanged.
    plan:
        The :class:`~repro.engine.plan.ExecutionPlan` this executor was
        resolved from:

        * ``pipeline_lookahead`` — tuples speculated ahead of the
          committing one.  ``1`` disables the scheduler: the computation
          is bit-identical to :class:`BatchExecutor` (or to
          :class:`AsyncRefinementExecutor` when ``async_inflight > 1``)
          under the same seed.
        * ``async_inflight`` — the within-tuple refinement window.
          ``None`` means :data:`~repro.engine.async_exec
          .DEFAULT_ASYNC_INFLIGHT` when the scheduler engages (prefetching
          needs windows to land in), and the serial loop at lookahead 1.
        * ``batch_size`` — chunk size of the underlying batched pipeline.
          Speculation never crosses a chunk boundary (the kernel cache is
          per chunk).
        * ``transport`` — how the refinement windows' and prefetch walks'
          evaluations reach the black box.  The speculative *stages*
          always run on a private thread pool — they are GP work, not
          black-box calls — whatever the transport.
        * ``merge="shared"`` — live-model walk refresh
          (:attr:`shared_refresh`).  A prefetch walk that notices the live
          emulator has moved past its fence rebuilds its private view from
          a fresh snapshot, re-absorbs its own paid-for observations, and
          re-ranks — so walks stop mispredicting while the model is
          chaotic (a cold stream).  Committed results are unaffected
          (walks only feed the deduplicated prefetch pool), but the *set
          of speculative prefetches* becomes timing-dependent, so the
          total call count at lookahead > 1 may vary run to run;
          :attr:`last_walk_refreshes` reports how often the mechanism
          engaged.

    Raises
    ------
    QueryError
        From a compute call, on a UDF the transport cannot carry or when
        an evaluation driver is already installed on the target processor
        (nested pipelined execution).
    """

    def __init__(self, engine: UDFExecutionEngine, plan: "ExecutionPlan"):
        """Bind the engine and the plan (pools are created per computation
        so the executor stays picklable and reusable)."""
        self.engine = engine
        self.plan = plan
        self.lookahead = plan.pipeline_lookahead
        self.inflight = plan.async_inflight
        self.batch_size = plan.chunk_size
        self.transport = plan.transport
        self.columnar = plan.storage == "columnar"
        #: Refresh prefetch walks to the live model when it outruns their
        #: fence (see the class docstring for the determinism trade).
        self.shared_refresh = plan.merge == "shared"
        #: Per-phase wall-clock; ``"speculation"`` accumulates pool-thread
        #: work on top of the batched pipeline's phases.
        self.timings = PhaseTimings()
        #: Evaluations prefetched by the last compute call.
        self.last_speculative_calls = 0
        #: Prefetched evaluations the last compute call never consumed.
        self.last_wasted_calls = 0
        #: Walk fence refreshes performed by the last compute call
        #: (``shared_refresh`` only; 0 when the mechanism is off or the
        #: model never outran a walk).
        self.last_walk_refreshes = 0

    # -- public API ---------------------------------------------------------------
    def compute_batch(
        self, udf: UDF, input_distributions: Sequence[Distribution]
    ) -> list[ComputedOutput]:
        """Evaluate ``udf`` on every tuple with cross-tuple pipelining.

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
        """Predicate (online-filtering) evaluation.

        Filtering decisions are inherently tuple-sequential (each pilot draw
        feeds the shared random stream), so the cross-tuple scheduler stands
        down and the within-tuple overlap of the async path applies instead.
        """
        return self._run(udf, list(input_distributions), predicate=predicate)

    def _run(
        self,
        udf: UDF,
        distributions: list[Distribution],
        predicate: Optional[SelectionPredicate],
    ) -> list[ComputedOutput]:
        self.last_speculative_calls = 0
        self.last_wasted_calls = 0
        self.last_walk_refreshes = 0
        try:
            if not distributions:
                return []
            if (
                self.lookahead == 1
                or predicate is not None
                or self.engine.strategy == "mc"
            ):
                # Degenerate paths run the plan without its lookahead.  On
                # the predicate path at lookahead > 1 the user opted into
                # overlap and only the *cross-tuple* half stands down, so
                # an unset window takes the scheduler's default; at
                # lookahead = 1 it stays off, preserving bit-identity with
                # the serial batched path.
                overrides = {}
                if predicate is not None and self.lookahead > 1 and self.inflight is None:
                    overrides["async_inflight"] = DEFAULT_ASYNC_INFLIGHT
                delegate = self.plan.inner(**overrides).resolve(self.engine)
                try:
                    if predicate is None:
                        return delegate.compute_batch(udf, distributions)
                    return delegate.compute_batch_with_predicate(
                        udf, distributions, predicate
                    )
                finally:
                    self.timings.merge(delegate.timings)
            return self._run_pipelined(udf, distributions)
        finally:
            # Whatever path ran (including the empty degenerate one), report
            # a complete phase record: downstream timing consumers must
            # never see this executor's phase set vary with the input.
            self.timings.ensure("sampling", "inference", "refinement", "speculation")

    # -- the scheduler -------------------------------------------------------------
    def _run_pipelined(self, udf: UDF, distributions: list[Distribution]) -> list[ComputedOutput]:
        olgapro = self._olgapro_for(udf)
        if olgapro.evaluation_driver is not None:
            raise QueryError(
                f"processor for UDF {udf.name!r} already has an evaluation "
                "driver installed (nested pipelined execution is not supported)"
            )
        window = self.inflight if self.inflight is not None else DEFAULT_ASYNC_INFLIGHT
        # Two bounded carriers, split by *blocking behaviour*.  Black-box
        # evaluations never block on anything, so a dedicated evaluation
        # transport always makes progress; speculative stages and refinement
        # walks DO block (on evaluation futures), so they get their own
        # thread pool — a pile-up of blocked walks can delay other stages,
        # never the evaluations they are waiting on.  Putting both kinds on
        # one carrier would deadlock once every worker held a blocked walk
        # with the evaluations it awaits still queued behind it.
        # Eval sizing: the commit window plus each concurrent walk's padded
        # prefetches can sleep simultaneously; beyond that, queued
        # evaluations only add latency (never deadlock — eval tasks do not
        # block), so the count is capped rather than scaled without bound.
        eval_workers = 2 + min(64, window * (1 + 2 * self.lookahead))
        stage_workers = 2 * self.lookahead + 2
        outputs: list[ComputedOutput] = []
        #: points_added of recently committed tuples, shared across chunks.
        #: Calibrates both the walk-depth cap and the full-versus-cheap
        #: speculative inference choice (see :meth:`_run_chunk`).
        recent_depths: list[int] = []
        transport = make_transport(self.transport)
        transport.accepts(udf)
        # The session closes the transport on every exit path (QueryError
        # included), so a failed chunk never leaks evaluation threads.
        with transport.session(
            eval_workers, label=f"eval-{udf.name}"
        ) as eval_pool, ThreadPoolExecutor(
            max_workers=stage_workers, thread_name_prefix=f"udf-pipeline-{udf.name}"
        ) as stage_pool:
            for chunk in iter_batches(distributions, self.batch_size):
                outputs.extend(
                    self._run_chunk(
                        udf, olgapro, list(chunk), eval_pool, stage_pool,
                        window, recent_depths,
                    )
                )
        return outputs

    def _run_chunk(
        self,
        udf: UDF,
        olgapro: OLGAPRO,
        chunk: list[Distribution],
        eval_pool: Union[ThreadPoolExecutor, EvaluationTransport],
        stage_pool: ThreadPoolExecutor,
        window: int,
        recent_depths: list[int],
    ) -> list[ComputedOutput]:
        """One chunk through the stage DAG (see the module docstring).

        Mirrors :meth:`OLGAPRO.process_batch` stage for stage — up-front
        ordered sampling, shared kernel cache, per-tuple initial bound,
        refinement only for tuples that miss the budget, retraining check —
        with the speculative stages layered on top.
        """
        if self.engine.strategy == "hybrid":
            processor = self.engine._processor_for(udf)
            decision = processor.decide(chunk[0])
            if decision.method == "mc":
                return mc_chunk(
                    udf, chunk, processor.requirement, processor._rng,
                    self.timings, self.columnar,
                )

        rng = olgapro._rng
        emulator = olgapro.emulator

        # Stage "sample" plus the shared prologue, through the same helper
        # the batched path uses — identical random-stream consumption and
        # identical init-cost charging.  The initial design's UDF calls
        # overlap on the shared pool: with a slow black box they otherwise
        # cost n_points serial latencies before any stage can start (the
        # trained model is identical either way).
        prologue = olgapro.begin_chunk(
            chunk, rng, timings=self.timings,
            evaluation_executor=eval_pool, max_inflight=window,
            columnar=self.columnar,
        )
        init_calls = prologue.init_calls
        init_charged = prologue.init_charged
        init_elapsed = prologue.init_elapsed
        m = prologue.n_samples
        sample_sets = prologue.sample_sets
        sample_seconds = prologue.sample_seconds
        boxes = prologue.boxes
        cache = prologue.cache
        cache_share = prologue.cache_share
        cache_lock = threading.Lock()

        pool = SpeculativeValuePool(udf, eval_pool)
        driver = PipelineEvaluationDriver(eval_pool, window, pool)
        olgapro.evaluation_driver = driver
        olgapro.value_source = pool.fetch_value
        pending: dict[int, _PendingTuple] = {}
        #: Free-running refinement walks; never awaited by the commit loop
        #: (a slow walk must not stall a fast commit), only drained at the
        #: end of the chunk so every prefetch lands and is charged.
        walks: list[Future] = []
        #: Speculative stages replaced by a fence refresh; still drained at
        #: the end of the chunk so their prefetches land and are charged.
        superseded: list[Future] = []

        def submit_speculation(j: int) -> None:
            """Stage "retrieve/infer" for tuple ``j``, fenced on the live version.

            Both calibrations here read ``recent_depths`` — the committed
            tuples' real refinement depths — on the coordinating thread, so
            they are deterministic:

            * the walk-depth cap sits near twice the recent real depth (a
              speculative view misses whatever neighbouring tuples taught
              the model after its fence, so its own bound converges slower
              than the committed one will; without the cap a stale walk
              phantom-refines to the per-tuple limit), and
            * the full (reusable-at-commit) fenced inference is only worth
              computing after a quiet streak — when commits are not moving
              the model and the fence will actually survive.
            """
            fence = emulator.snapshot()
            view = _gp_view(emulator.gp, fence)
            if recent_depths:
                tail = recent_depths[-8:]
                walk_cap = max(window, int(np.ceil(1.5 * sum(tail) / len(tail))))
            else:
                # No history yet (cold model): the first tuples refine the
                # deepest, so a window-derived guess would stop their walks
                # after a fraction of the rounds they will actually run.
                walk_cap = max(2 * window, 16)
            walk_cap = min(walk_cap, olgapro.max_points_per_tuple)
            full_inference = bool(recent_depths) and sum(recent_depths[-4:]) == 0
            future = stage_pool.submit(
                self._speculate, olgapro, view, cache, cache_lock,
                sample_sets[j], boxes[j], j, pool, window, stage_pool, walks,
                walk_cap, full_inference, fence.gp_state.version,
            )
            pending[j] = _PendingTuple(index=j, fence=fence, future=future)

        results: list[OnlineTupleResult] = []
        try:
            for j in range(min(self.lookahead, len(chunk))):
                submit_speculation(j)
            for i, samples in enumerate(sample_sets):
                started = time.perf_counter()
                charged_before = udf.charged_time
                state = pending.pop(i)
                # Always wait: the stage was submitted, so its prefetches
                # must land (and be charged) whether or not the fence held —
                # this is what keeps the total call count deterministic.
                speculation = state.future.result()
                self.timings.add("speculation", speculation.seconds)
                fence_ok = (
                    speculation.error is None
                    and speculation.envelope is not None
                    and emulator.gp.version == state.fence.gp_state.version
                )
                infer = olgapro._make_cached_infer(cache, i)
                phase_started = time.perf_counter()
                if fence_ok:
                    envelope, bound = speculation.envelope, speculation.bound
                else:
                    # Stale fence: re-run the inference against the updated
                    # emulator — bitwise the serial batched computation.
                    with cache_lock:
                        cache.invalidate_rows()
                        envelope, bound = olgapro._infer_and_bound(
                            samples, boxes[i], infer=infer
                        )
                self.timings.add("inference", time.perf_counter() - phase_started)
                points_added = 0
                converged = True
                evals_before = olgapro.refinement_evaluations
                if bound > olgapro.budget.epsilon_gp:
                    refine_started = time.perf_counter()
                    envelope, bound, points_added, converged = olgapro._tune_until_bounded(
                        samples, boxes[i], rng, initial=(envelope, bound)
                    )
                    self.timings.add("refinement", time.perf_counter() - refine_started)
                # Coordinator-thread counter delta: counts every evaluation
                # this tuple's refinement consumed (windows, speculative
                # blocks including rollbacks, singles) without being
                # polluted by prefetches completing for other tuples.
                consumed_calls = olgapro.refinement_evaluations - evals_before
                retrained = olgapro._maybe_retrain(points_added)
                if retrained:
                    with cache_lock:
                        cache.invalidate_rows()
                        envelope, bound = olgapro._infer_and_bound(
                            samples, boxes[i], infer=infer
                        )
                elapsed = time.perf_counter() - started + sample_seconds[i] + cache_share
                if i == 0:
                    elapsed += init_elapsed
                recent_depths.append(points_added)
                olgapro._tuples_processed += 1
                results.append(
                    olgapro._tuple_result(
                        envelope,
                        bound,
                        converged=converged,
                        points_added=points_added,
                        n_samples=m,
                        udf_calls=consumed_calls + (init_calls if i == 0 else 0),
                        charged_time=udf.charged_time - charged_before + elapsed
                        + (init_charged if i == 0 else 0.0),
                        elapsed_time=elapsed,
                        retrained=retrained,
                    )
                )
                next_index = i + self.lookahead
                if next_index < len(chunk):
                    submit_speculation(next_index)
                # Fence refresh: when this commit's refinement moved the
                # model a whole window past what the *next* tuple's
                # speculation was fenced on, that speculation is ranking
                # candidates against a world that no longer exists — its
                # prefetches would largely miss.  Re-speculate it on the
                # settled state (the old walk runs on to its deterministic
                # cap, so the total charge count stays deterministic; the
                # pool dedupes whatever the two walks agree on).  A warm
                # stream adds no points, so this never fires there.
                refresh = pending.get(i + 1)
                if refresh is not None and emulator.n_training - refresh.fence_n >= window:
                    superseded.append(refresh.future)
                    submit_speculation(i + 1)
        finally:
            olgapro.evaluation_driver = None
            olgapro.value_source = None
            # A failed commit leaves later stages pending, and fence
            # refreshes leave superseded ones; both must still settle so
            # every prefetch lands and is charged — and their pool-thread
            # seconds still count toward the speculation phase, or a
            # refresh-heavy run would under-report the work it spent.
            for future in [state.future for state in pending.values()] + superseded:
                try:
                    self.timings.add("speculation", future.result().seconds)
                except BaseException:
                    pass
            for walk in walks:
                try:
                    self.last_walk_refreshes += int(walk.result() or 0)
                except BaseException:
                    pass
            pool.settle()
            self.last_speculative_calls += pool.prefetched
            self.last_wasted_calls += pool.wasted
        return [online_result_to_output(result) for result in results]

    def _speculate(
        self,
        olgapro: OLGAPRO,
        view: GaussianProcess,
        cache: BatchKernelCache,
        cache_lock: threading.Lock,
        samples: np.ndarray,
        box: BoundingBox,
        j: int,
        pool: SpeculativeValuePool,
        window: int,
        stage_pool: ThreadPoolExecutor,
        walks: list[Future],
        walk_cap: int,
        full_inference: bool,
        fence_version: int,
    ) -> _SpeculationResult:
        """Speculative retrieve/infer stage for tuple ``j`` (pool thread).

        Estimates the tuple's error bound against the fenced view and, when
        it misses the budget, hands the fenced state to a *free-running*
        refinement walk that prefetches the tuple's expected UDF evaluations
        (the commit loop waits for this stage, never for the walk).

        ``full_inference`` selects the estimate's fidelity: the exact cached
        inference (reusable bitwise at commit when the fence holds — worth
        its cost when the stream is quiet and fences survive) versus a cheap
        global-GP pass that only seeds the walk (the right trade in a
        refining stream, where every commit moves the model and fenced
        envelopes die anyway).  The choice is made deterministically on the
        coordinating thread.  Never touches the live model; any failure is
        reported (not raised) and handled like a stale fence.
        """
        started = time.perf_counter()
        try:
            if full_inference:
                with cache_lock:
                    inference = olgapro.cached_inference_with(view, cache, j)
                    envelope, bound = olgapro.bound_with(
                        view, inference, box, samples.shape[0]
                    )
                result = _SpeculationResult(inference=inference, envelope=envelope, bound=bound)
            else:
                inference = global_inference(view, samples)
                _, bound = olgapro.bound_with(view, inference, box, samples.shape[0])
                result = _SpeculationResult()
            if bound > olgapro.budget.epsilon_gp:
                walks.append(
                    stage_pool.submit(
                        self._walk_refinement,
                        olgapro, view, samples, box, pool, window,
                        inference.stds, walk_cap, fence_version,
                    )
                )
            result.seconds = time.perf_counter() - started
            return result
        except BaseException as exc:  # noqa: BLE001 - reported, handled at commit
            return _SpeculationResult(error=exc, seconds=time.perf_counter() - started)

    def _walk_refinement(
        self,
        olgapro: OLGAPRO,
        view: GaussianProcess,
        samples: np.ndarray,
        box: BoundingBox,
        pool: SpeculativeValuePool,
        window: int,
        stds: np.ndarray,
        walk_cap: int,
        fence_version: int,
    ) -> int:
        """Prefetch tuple ``j``'s expected refinement windows on the view.

        Window by window: prefetch the top-``window`` highest-variance
        candidates (plus a pad — the committed selection ranks by fresh
        variances, which differ from the speculative ones in the last ulps
        and by whatever the fence missed, so its top-k almost always sits
        inside the speculative top-(k + pad)), wait for the values (the
        waits are the point — they overlap earlier tuples' refinement on
        the shared pool), absorb them into the *private* view, and re-rank
        by the view's updated global variances.  Depth is bounded by
        ``walk_cap``, calibrated from recently committed tuples, so a walk
        whose fence went stale cannot phantom-refine to the per-tuple cap.

        The re-ranking deliberately uses plain global GP variance on the
        view — the cheapest update that tracks where the next window moves.
        It ranks candidates somewhat differently from the local-subset
        variances the committed selection uses, so windows after the first
        carry a *double* pad: a wider prefetch superset is far cheaper than
        the alternatives (running real local inference per walk window
        measurably costs more CPU than the misses it prevents, and a miss
        stalls the committing thread for a whole black-box latency).
        Everything else the commit path computes per window (envelope,
        band, bound, chunk-level rechecks) is skipped: the walk only needs
        the ranking.

        The view is private to this stage, so nothing here touches the live
        emulator or the shared chunk cache; the only shared effect is the
        deduplicated prefetch pool.

        Under :attr:`shared_refresh` the walk additionally watches the live
        model between windows: when its version has moved past
        ``fence_version`` (neighbouring commits — or, in a shard, the shared
        store — taught the model something this walk cannot see), the walk
        rebuilds its view from a fresh snapshot, re-absorbs its *own*
        already-paid-for observations (deduplicated against what the live
        model absorbed meanwhile), re-ranks — and re-checks the tuple's
        error bound on the refreshed view: a bound already inside the
        budget means the commit will converge without refinement, so the
        walk stops instead of prefetching evaluations nobody will consume.
        Returns the number of such refreshes (always 0 with
        ``shared_refresh`` off).
        """
        emulator = olgapro.emulator
        m = samples.shape[0]
        points_used = 0
        first_window = True
        refreshes = 0
        #: Observations this walk absorbed into its view — paid for and
        #: deterministic given the view, so safe to re-absorb after a
        #: fence refresh.
        own_rows: list[np.ndarray] = []
        own_values: list[float] = []
        while True:
            if (
                self.shared_refresh
                and not first_window
                and emulator.gp.version != fence_version
            ):
                # The live model outran this walk's fence: re-fence.  The
                # snapshot read races commit-thread mutations; the buffers
                # themselves are never mutated in place, but a torn
                # state-object read can still fail — in that case keep the
                # old view and retry at the next window.
                try:
                    fence = emulator.snapshot()
                    fresh = _gp_view(emulator.gp, fence)
                    have = (
                        {row.tobytes() for row in fresh.X_train}
                        if fresh.n_training
                        else set()
                    )
                    keep = [
                        idx
                        for idx, row in enumerate(own_rows)
                        if row.tobytes() not in have
                    ]
                    room = max(0, olgapro.max_training_points - fresh.n_training)
                    keep = keep[:room]
                    if keep:
                        fresh.add_points(
                            np.asarray([own_rows[idx] for idx in keep]),
                            np.asarray([own_values[idx] for idx in keep]),
                        )
                    view = fresh
                    fence_version = fence.gp_state.version
                    refreshes += 1
                    inference = global_inference(view, samples)
                    _, bound = olgapro.bound_with(view, inference, box, m)
                    if bound <= olgapro.budget.epsilon_gp:
                        # What the model learned since the fence already
                        # answers this tuple: the commit will converge
                        # without refinement, so every further prefetch
                        # would be waste.
                        return refreshes
                    stds = inference.stds
                except Exception:  # noqa: BLE001 - torn read; old view still valid
                    pass
            capacity = min(
                walk_cap - points_used,
                olgapro.max_training_points - view.n_training,
            )
            if capacity <= 0:
                return refreshes
            k = min(window, capacity, m)
            pad = min(k + max(2, k // 4) if first_window else 2 * k, m)
            prefetch = select_top_k_distinct(samples, stds, pad)
            # The stable selection makes top-k a prefix of top-(k + pad).
            order = prefetch[:k]
            k = len(order)
            if k == 0:
                return refreshes
            futures = pool.prefetch(samples[prefetch])[:k]
            y = np.array([future.result() for future in futures])
            view.add_points(samples[order], y)
            own_rows.extend(np.array(samples[idx], dtype=float) for idx in order)
            own_values.extend(float(value) for value in y)
            points_used += k
            first_window = False
            _, stds = view.predict(samples, return_std=True)

    def _olgapro_for(self, udf: UDF) -> OLGAPRO:
        """The OLGAPRO processor behind ``udf`` (created if still cold)."""
        processor = self.engine._processor_for(udf)
        if isinstance(processor, HybridExecutor):
            return processor._olgapro
        return processor
