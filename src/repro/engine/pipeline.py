"""The *lookahead* stage: cross-tuple speculation around the one commit loop.

A refinement window (:mod:`repro.engine.async_exec`) overlaps black-box UDF
calls *within* one tuple's refinement, but consecutive tuples still
serialise: the first GP inference of tuple *i + 1* waits behind the tail of
tuple *i*'s windows.  At a plan lookahead > 1 the chunk executor
(:class:`~repro.engine.batch.BatchExecutor`) attaches a
:class:`SpeculationStage` to the tuple-commit loop
(:meth:`OLGAPRO.process_batch <repro.core.olgapro.OLGAPRO.process_batch>`).
The loop does not change — sampling up front in tuple order, commits
strictly in tuple order on the coordinating thread, with the same
quarantine, model-sync, first-pass and retraining treatment as at
lookahead 1.  The stage only adds, on a private thread pool:

1. **retrieve / infer** — while tuple *i* refines, the first GP inference
   (retrieval, envelope, error bound) of tuples *i + 1 … i + lookahead*
   runs *speculatively* against a snapshot view of the emulator — the same
   per-tuple step the commit loop runs, on the view's own state —
   and the highest-variance candidates of each speculated tuple's expected
   refinement windows are **prefetched**: their UDF evaluations are
   submitted immediately, so the black-box latency of tuple *i + 1*'s
   windows hides under tuple *i*'s;
2. **reuse** — every value the commit loop's refinement needs (each
   window and each single point) comes through the processor's window
   driver, which the stage points at its speculative value pool: a
   prefetched observation is the observation (the UDF is deterministic),
   and only a miss pays for a fresh evaluation.

Determinism contract
--------------------
Speculation is *fenced* on the GP state version, exactly like a window's
slice absorption: a speculative inference records the
:attr:`~repro.gp.regression.GaussianProcess.version` it was computed
against, and at commit time it is used only if the model has not moved
since.  A tuple whose fence went stale re-runs its inference against the
updated emulator — bitwise the computation lookahead 1 performs at that
point.  All model mutations happen on the coordinating thread, in
tuple-submission order, so

* results are invariant to completion order and thread scheduling (a
  prefetched value equals the freshly evaluated one; a stale speculation is
  recomputed, never absorbed),
* lookahead 1 attaches no stage and starts no thread, and
* at lookahead > 1 the committed refinement trajectory — and therefore the
  output distributions and error bounds — is bitwise the one the same
  window produces at lookahead 1; only wall-clock and the *total* UDF call
  count change (unconsumed prefetches are paid for and discarded, like a
  window's discarded tail; ``last_wasted_calls`` on the executor reports
  them).

Cost model
----------
Prefetched-but-unused evaluations are charged: the calls really happened.
Per-tuple ``udf_calls`` counts the evaluations each tuple's refinement
*consumed* (window submissions plus single-point absorptions — the same
number lookahead 1 charges per tuple), while per-tuple ``charged_time`` is
attribution-approximate under cross-tuple overlap (evaluations for several
tuples complete concurrently); the UDF's own counters stay exact in
aggregate.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

import numpy as np

from repro.core.emulator import EmulatorSnapshot
from repro.core.local_inference import global_inference
from repro.core.olgapro import OLGAPRO, ChunkPrologue, ChunkStage, select_top_k_distinct
from repro.engine.async_exec import AsyncEvaluationDriver
from repro.engine.transport import EvaluationTransport
from repro.gp.regression import GaussianProcess
from repro.index.bounding_box import BoundingBox
from repro.timing import PhaseTimings
from repro.udf.base import UDF


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

    def __init__(self, udf: UDF, carrier: EvaluationTransport):
        self.udf = udf
        self.carrier = carrier
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
                future = self.carrier.submit_rows(self.udf, row[None, :])[0]
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
    keeps refining earlier tuples.  Being its own object, the view also
    keeps its own :meth:`~repro.gp.regression.GaussianProcess.local_inverse`
    memo: a stage never reads or files into the live model's.
    """
    view = GaussianProcess(
        kernel=gp.kernel.clone(),
        noise_variance=gp.noise_variance,
        refresh_every=gp.refresh_every,
        center_targets=gp.center_targets,
    )
    view.restore(fence.gp_state)
    return view


class SpeculationStage(ChunkStage):
    """The cross-tuple scheduler plugged into the one tuple-commit loop.

    One instance serves one computation: used as a context manager it owns
    the stage thread pool, and :meth:`chunk` scopes the per-chunk state
    (speculation never crosses a chunk boundary — the sample draws are per
    chunk).  See the module docstring for the determinism contract.

    Two bounded carriers, split by *blocking behaviour*.  Black-box
    evaluations never block on anything, so the evaluation transport
    (the driver's ``carrier``, sized by :meth:`eval_workers`) always makes
    progress;
    speculative stages and refinement walks DO block (on evaluation
    futures), so they get their own thread pool — a pile-up of blocked
    walks can delay other stages, never the evaluations they are waiting
    on.  Putting both kinds on one carrier would deadlock once every worker
    held a blocked walk with the evaluations it awaits still queued behind
    it.

    Parameters
    ----------
    olgapro:
        The processor whose commit loop the stage rides.
    driver:
        The window driver installed on ``olgapro`` — at window 1 too.  Its
        open transport carries the prefetches, its window sizes the walks,
        and for each chunk it is pointed at the chunk's value pool, so
        every value the commit loop claims comes through the pool.
    lookahead:
        The plan's cross-tuple lookahead.
    shared_refresh:
        ``merge="shared"`` on an unsharded plan: a prefetch walk that
        notices the live emulator has moved past its fence rebuilds its
        private view from a fresh snapshot, re-absorbs its own paid-for
        observations, and re-ranks — so walks stop mispredicting while the
        model is chaotic (a cold stream).  Committed results are unaffected
        (walks only feed the deduplicated prefetch pool), but the *set of
        speculative prefetches* becomes timing-dependent, so the total call
        count may vary run to run; :attr:`walk_refreshes` reports how often
        the mechanism engaged.
    timings:
        The executor's phase accumulator; pool-thread seconds land under
        ``"speculation"``, always recorded by the coordinating thread.
    """

    overlapped = True

    def __init__(
        self,
        olgapro: OLGAPRO,
        driver: AsyncEvaluationDriver,
        lookahead: int,
        shared_refresh: bool,
        timings: PhaseTimings,
    ):
        """Bind the computation-wide state (threads start on ``__enter__``)."""
        self.olgapro = olgapro
        self.driver = driver
        self.window = driver.window
        self.lookahead = lookahead
        self.shared_refresh = shared_refresh
        self.timings = timings
        #: Evaluations prefetched / prefetched-but-never-consumed / walk
        #: fence refreshes, summed over the computation's chunks.
        self.speculative_calls = 0
        self.wasted_calls = 0
        self.walk_refreshes = 0
        #: points_added of recently committed tuples, shared across chunks.
        #: Calibrates both the walk-depth cap and the full-versus-cheap
        #: speculative inference choice (see :meth:`_submit`).
        self._recent_depths: list[int] = []

    @staticmethod
    def eval_workers(window: int, lookahead: int) -> int:
        """Width of the evaluation transport under a stage.

        The commit window plus each concurrent walk's padded prefetches can
        sleep simultaneously; beyond that, queued evaluations only add
        latency (never deadlock — evaluation tasks do not block), so the
        count is capped rather than scaled without bound.
        """
        return 2 + min(64, window * (1 + 2 * lookahead))

    def __enter__(self) -> "SpeculationStage":
        """Start the stage thread pool."""
        self._stage_pool = ThreadPoolExecutor(
            max_workers=2 * self.lookahead + 2,
            thread_name_prefix=f"udf-pipeline-{self.olgapro.udf.name}",
        )
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Join the stage thread pool (every exit path)."""
        self._stage_pool.shutdown()

    # -- the seam OLGAPRO.process_batch drives ---------------------------------------
    @contextmanager
    def chunk(self, prologue: ChunkPrologue) -> Iterator[None]:
        """Scope one chunk: value pool in, first speculations out; settle after."""
        self._samples = prologue.sample_sets
        self._boxes = prologue.boxes
        pool = self._pool = SpeculativeValuePool(self.olgapro.udf, self.driver.carrier)
        self._pending: dict[int, _PendingTuple] = {}
        #: Free-running refinement walks; never awaited by the commit loop
        #: (a slow walk must not stall a fast commit), only drained at the
        #: end of the chunk so every prefetch lands and is charged.
        self._walks: list[Future] = []
        #: Speculative stages replaced by a fence refresh; still drained at
        #: the end of the chunk so their prefetches land and are charged.
        self._superseded: list[Future] = []
        self.driver.pool = pool
        try:
            for j in range(min(self.lookahead, len(self._samples))):
                self._submit(j)
            yield
        finally:
            self.driver.pool = None
            # A failed commit leaves later stages pending, and fence
            # refreshes leave superseded ones; both must still settle so
            # every prefetch lands and is charged — and their pool-thread
            # seconds still count toward the speculation phase, or a
            # refresh-heavy run would under-report the work it spent.
            for future in [state.future for state in self._pending.values()] + self._superseded:
                try:
                    self.timings.add("speculation", future.result().seconds)
                except Exception:  # noqa: BLE001 - a discarded stage's failure is irrelevant
                    pass
            for walk in self._walks:
                try:
                    self.walk_refreshes += int(walk.result() or 0)
                except Exception:  # noqa: BLE001 - a discarded stage's failure is irrelevant
                    pass
            pool.settle()
            self.speculative_calls += pool.prefetched
            self.wasted_calls += pool.wasted

    def speculated(self, i: int) -> Optional[tuple[Any, Any, float]]:
        """Tuple ``i``'s speculated first ``(inference, envelope, bound)``, if its fence holds.

        Always waits: the stage was submitted, so its prefetches must land
        (and be charged) whether or not the fence held — this is what keeps
        the total call count deterministic.  A stale fence (or a stage that
        only ran the cheap estimate, or failed) returns ``None``: the commit
        loop re-runs the inference against the updated emulator.
        """
        state = self._pending.pop(i)
        speculation = state.future.result()
        self.timings.add("speculation", speculation.seconds)
        if (
            speculation.error is None
            and speculation.envelope is not None
            and self.olgapro.emulator.gp.version == state.fence.gp_state.version
        ):
            return speculation.inference, speculation.envelope, speculation.bound
        return None

    def committed(self, i: int, points_added: int) -> None:
        """Record the depth, speculate the next tuple, refresh a stale fence."""
        self._recent_depths.append(points_added)
        next_index = i + self.lookahead
        if next_index < len(self._samples):
            self._submit(next_index)
        # Fence refresh: when this commit's refinement moved the model a
        # whole window past what the *next* tuple's speculation was fenced
        # on, that speculation is ranking candidates against a world that
        # no longer exists — its prefetches would largely miss.
        # Re-speculate it on the settled state (the old walk runs on to its
        # deterministic cap, so the total charge count stays deterministic;
        # the pool dedupes whatever the two walks agree on).  A warm stream
        # adds no points, so this never fires there.
        refresh = self._pending.get(i + 1)
        if (
            refresh is not None
            and self.olgapro.emulator.n_training - refresh.fence_n >= self.window
        ):
            self._superseded.append(refresh.future)
            self._submit(i + 1)

    # -- speculation (pool threads) --------------------------------------------------
    def _submit(self, j: int) -> None:
        """Stage "retrieve/infer" for tuple ``j``, fenced on the live version.

        Both calibrations here read ``_recent_depths`` — the committed
        tuples' real refinement depths — on the coordinating thread, so
        they are deterministic:

        * the walk-depth cap sits near twice the recent real depth (a
          speculative view misses whatever neighbouring tuples taught the
          model after its fence, so its own bound converges slower than the
          committed one will; without the cap a stale walk phantom-refines
          to the per-tuple limit), and
        * the full (reusable-at-commit) fenced inference is only worth
          computing after a quiet streak — when commits are not moving the
          model and the fence will actually survive.
        """
        emulator = self.olgapro.emulator
        fence = emulator.snapshot()
        view = _gp_view(emulator.gp, fence)
        depths = self._recent_depths
        if depths:
            tail = depths[-8:]
            walk_cap = max(self.window, int(np.ceil(1.5 * sum(tail) / len(tail))))
        else:
            # No history yet (cold model): the first tuples refine the
            # deepest, so a window-derived guess would stop their walks
            # after a fraction of the rounds they will actually run.
            walk_cap = max(2 * self.window, 16)
        walk_cap = min(walk_cap, self.olgapro.max_points_per_tuple)
        full_inference = bool(depths) and sum(depths[-4:]) == 0
        future = self._stage_pool.submit(
            self._speculate, view, j, walk_cap, full_inference, fence.gp_state.version
        )
        self._pending[j] = _PendingTuple(index=j, fence=fence, future=future)

    def _speculate(
        self,
        view: GaussianProcess,
        j: int,
        walk_cap: int,
        full_inference: bool,
        fence_version: int,
    ) -> _SpeculationResult:
        """Speculative retrieve/infer stage for tuple ``j`` (pool thread).

        Estimates the tuple's error bound against the fenced view and, when
        it misses the budget, hands the fenced state to a *free-running*
        refinement walk that prefetches the tuple's expected UDF evaluations
        (the commit loop waits for this stage, never for the walk).

        ``full_inference`` selects the estimate's fidelity: the commit loop's
        own inference step on the view (reusable bitwise at commit when the
        fence holds, because the view memoises its own local inverses — worth
        its cost when the stream is quiet and fences survive) versus a cheap
        global-GP pass that only seeds the walk (the right trade in a
        refining stream, where every commit moves the model and fenced
        envelopes die anyway).  The choice is made deterministically on the
        coordinating thread.  Never touches the live model; any failure is
        reported (not raised) and handled like a stale fence.
        """
        olgapro = self.olgapro
        samples, box = self._samples[j], self._boxes[j]
        started = time.perf_counter()
        try:
            if full_inference:
                inference = olgapro.infer_with(view, samples, box)
                envelope, bound = olgapro.bound_with(view, inference, box, samples.shape[0])
                result = _SpeculationResult(inference=inference, envelope=envelope, bound=bound)
            else:
                inference = global_inference(view, samples)
                _, bound = olgapro.bound_with(view, inference, box, samples.shape[0])
                result = _SpeculationResult()
            if bound > olgapro.budget.epsilon_gp:
                self._walks.append(
                    self._stage_pool.submit(
                        self._walk_refinement,
                        view, samples, box, inference.stds, walk_cap, fence_version,
                    )
                )
            result.seconds = time.perf_counter() - started
            return result
        except BaseException as exc:  # noqa: BLE001 - reported, handled at commit
            return _SpeculationResult(error=exc, seconds=time.perf_counter() - started)

    def _walk_refinement(
        self,
        view: GaussianProcess,
        samples: np.ndarray,
        box: BoundingBox,
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
        emulator; the only shared effect is the deduplicated prefetch pool.

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
        olgapro, pool, window = self.olgapro, self._pool, self.window
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


def __getattr__(name: str) -> Any:
    """``PipelinedExecutor``: the pre-PR-14 name of the one chunk executor.

    Kept importable because external tooling (``perfbench/tracing.py``)
    binds it by module and name; nothing in this package selects on it.
    """
    if name == "PipelinedExecutor":
        from repro.engine.batch import BatchExecutor

        return BatchExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
