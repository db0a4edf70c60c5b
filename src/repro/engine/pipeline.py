"""The *lookahead* stage: cross-tuple prefetching around the one commit loop.

A refinement window (:mod:`repro.engine.async_exec`) overlaps black-box UDF
calls *within* one tuple's refinement, but consecutive tuples still
serialise: the UDF calls of tuple *i + 1*'s windows wait behind the tail of
tuple *i*'s.  At a plan lookahead > 1 the chunk executor
(:class:`~repro.engine.batch.BatchExecutor`) attaches a
:class:`SpeculationStage` to the tuple-commit loop
(:meth:`OLGAPRO.process_batch <repro.core.olgapro.OLGAPRO.process_batch>`).
The loop does not change — sampling up front in tuple order, commits
strictly in tuple order on the coordinating thread, each tuple's first
pass, refinement, quarantine, model sync and retraining exactly as at
lookahead 1.  The stage is a pure prefetcher: it hands the loop nothing
but UDF values.  On a private thread pool it runs one kind of task, the
*walk*:

1. **prefetch** — for each of tuples *i + 1 … i + lookahead* a walk takes
   a snapshot view of the emulator and guesses the tuple's refinement
   points window by window (the highest-variance candidates, absorbed into
   the private view), submitting their UDF evaluations ahead of time, so
   the black-box latency of tuple *i + 1*'s windows hides under tuple
   *i*'s.  The walk's depth follows what the last committed tuples really
   refined; a stream whose recent tuples did not refine walks nothing;
2. **reuse** — every value the commit loop's refinement needs (each
   window and each single point) comes through the processor's window
   driver, which the stage points at its speculative value pool: a
   prefetched observation is the observation (the UDF is deterministic),
   and only a miss pays for a fresh evaluation.

Determinism contract
--------------------
Walks never touch the live model and the commit loop reads nothing from
them except values it would have evaluated itself, so

* results are invariant to completion order and thread scheduling (a
  prefetched value equals the freshly evaluated one),
* lookahead 1 attaches no stage and starts no thread, and
* at lookahead > 1 the committed refinement trajectory — and therefore the
  output distributions and error bounds — is bitwise the one the same
  window produces at lookahead 1 by construction; only wall-clock and the
  *total* UDF call count change (unconsumed prefetches are paid for and
  discarded, like a window's discarded tail; ``last_wasted_calls`` on the
  executor reports them).

Cost model
----------
Prefetched-but-unused evaluations are charged: the calls really happened.
Per-tuple ``udf_calls`` counts the evaluations each tuple's refinement
*consumed* and that returned a value (window submissions plus
single-point absorptions — the same number every plan charges per
tuple), while per-tuple ``charged_time`` is
attribution-approximate under cross-tuple overlap (evaluations for several
tuples complete concurrently); the UDF's own counters stay exact in
aggregate.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.core.olgapro import OLGAPRO, ChunkPrologue, ChunkStage, select_top_k_distinct
from repro.engine.async_exec import AsyncEvaluationDriver
from repro.engine.transport import EvaluationTransport
from repro.gp.regression import GaussianProcess, GPState
from repro.udf.base import UDF


class SpeculativeValuePool:
    """Point-keyed store of speculatively submitted UDF evaluations.

    Entries are keyed by the raw bytes of the evaluation point, so a
    prefetched observation is found again however the committing refinement
    arrives at the same candidate.  Submissions dedupe atomically (two
    walks racing to prefetch the same point charge exactly one
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

        Unclaimed prefetches mirror a refinement window's discarded tail: the
        calls are paid for (the black box really ran) but never absorbed,
        and their failures are irrelevant — serially they would never have
        happened.
        """
        for future in self._futures.values():
            future.exception()


def _gp_view(gp: GaussianProcess, state: GPState) -> GaussianProcess:
    """A private model over ``state``, configured like ``gp``.

    O(1): the view commits ``state``'s fields, sharing its read-only arrays
    instead of copying them, so it reproduces the state bitwise and stays
    consistent however the live model evolves — this is what lets a walk
    run on a pool thread while the coordinating thread keeps refining
    earlier tuples.
    """
    view = GaussianProcess(
        kernel=state.kernel.clone(),
        noise_variance=gp.noise_variance,
        refresh_every=gp.refresh_every,
        center_targets=gp.center_targets,
    )
    view.restore(state)
    return view


class SpeculationStage(ChunkStage):
    """The cross-tuple prefetcher plugged into the one tuple-commit loop.

    One instance serves one computation: used as a context manager it owns
    the walk thread pool, and :meth:`chunk` scopes the per-chunk state
    (prefetching never crosses a chunk boundary — the sample draws are per
    chunk).  See the module docstring for the determinism contract.

    Two bounded carriers, split by *blocking behaviour*.  Black-box
    evaluations never block on anything, so the evaluation transport
    (the driver's ``carrier``, sized by :meth:`eval_workers`) always makes
    progress; walks DO block (on evaluation futures), so they get their
    own thread pool — a pile-up of blocked walks can delay other walks,
    never the evaluations they are waiting on.  Putting both kinds on one
    carrier would deadlock once every worker held a blocked walk with the
    evaluations it awaits still queued behind it.

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
    """

    def __init__(self, olgapro: OLGAPRO, driver: AsyncEvaluationDriver, lookahead: int):
        """Bind the computation-wide state (threads start on ``__enter__``)."""
        self.olgapro = olgapro
        self.driver = driver
        self.window = driver.window
        self.lookahead = lookahead
        #: Evaluations prefetched / prefetched-but-never-consumed, summed
        #: over the computation's chunks.
        self.speculative_calls = 0
        self.wasted_calls = 0
        #: points_added of recently committed tuples, shared across chunks;
        #: sets each walk's depth (see :meth:`_submit`).
        self._recent_depths: list[int] = []

    @staticmethod
    def eval_workers(window: int, lookahead: int) -> int:
        """Width of the evaluation transport under a stage.

        The commit window plus each concurrent walk's window can sleep
        simultaneously; beyond that, queued evaluations only add latency
        (never deadlock — evaluation tasks do not block), so the count is
        capped rather than scaled without bound.
        """
        return 2 + min(64, window * (1 + lookahead))

    def __enter__(self) -> "SpeculationStage":
        """Start the walk thread pool."""
        self._stage_pool = ThreadPoolExecutor(
            max_workers=2 * self.lookahead + 2,
            thread_name_prefix=f"udf-pipeline-{self.olgapro.udf.name}",
        )
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Join the walk thread pool (every exit path)."""
        self._stage_pool.shutdown()

    # -- the seam OLGAPRO.process_batch drives ---------------------------------------
    @contextmanager
    def chunk(self, prologue: ChunkPrologue) -> Iterator[None]:
        """Scope one chunk: value pool in, first walks out; settle after."""
        self._samples = prologue.sample_sets
        pool = self._pool = SpeculativeValuePool(self.olgapro.udf, self.driver.carrier)
        #: Free-running walks; never awaited by the commit loop (a slow walk
        #: must not stall a fast commit), only drained at the end of the
        #: chunk so every prefetch lands and is charged.
        self._walks: list[Future] = []
        self.driver.pool = pool
        try:
            for j in range(min(self.lookahead, len(self._samples))):
                self._submit(j)
            yield
        finally:
            self.driver.pool = None
            # Every walk — including one a failed commit left running —
            # settles; a failed prefetch is irrelevant here.
            for walk in self._walks:
                walk.exception()
            pool.settle()
            self.speculative_calls += pool.prefetched
            self.wasted_calls += pool.wasted

    def committed(self, i: int, points_added: int) -> None:
        """Record the committed depth and walk the tuple ``lookahead`` ahead."""
        self._recent_depths.append(points_added)
        next_index = i + self.lookahead
        if next_index < len(self._samples):
            self._submit(next_index)

    # -- walks (pool threads) --------------------------------------------------------
    def _submit(self, j: int) -> None:
        """Start a walk for tuple ``j`` from a snapshot of the live model.

        The walk's depth is ⌈1.5 × the mean ``points_added`` of the last 8
        committed tuples⌉, read on the coordinating thread so it is
        deterministic: a stream whose recent tuples did not refine walks
        nothing, and a snapshot view — which misses whatever neighbouring
        tuples taught the model after it was taken, so its own variances
        fall slower than the committed ones will — never phantom-refines to
        the per-tuple limit.
        """
        tail = self._recent_depths[-8:]
        if tail:
            depth = int(np.ceil(1.5 * sum(tail) / len(tail)))
        else:
            # No history yet (cold model): the first tuples refine the
            # deepest, so a window-derived guess would stop their walks
            # after a fraction of the rounds they will actually run.
            depth = max(2 * self.window, 16)
        depth = min(depth, self.olgapro.max_points_per_tuple)
        if depth == 0:
            return
        gp = self.olgapro.emulator.gp
        view = _gp_view(gp, gp.snapshot())
        self._walks.append(self._stage_pool.submit(self._walk, view, j, depth))

    def _walk(self, view: GaussianProcess, j: int, depth: int) -> None:
        """Prefetch tuple ``j``'s expected refinement windows (pool thread).

        Window by window, up to ``depth`` points: prefetch the
        top-``window`` highest-variance candidates on the view, wait for
        the values (the waits are the point — they overlap earlier tuples'
        refinement on the shared transport), absorb them into the *private*
        view, and re-rank by the view's updated variances.

        The view is private to this walk, so nothing here touches the live
        emulator; the only shared effect is the deduplicated prefetch pool.
        A prefetch that fails ends the walk with it; the commit loop meets
        the failure only if it needs the point (the pool hands it the same
        future).
        """
        olgapro, pool = self.olgapro, self._pool
        samples = self._samples[j]
        points_used = 0
        while True:
            capacity = min(
                depth - points_used,
                olgapro.max_training_points - view.n_training,
            )
            if capacity <= 0:
                return
            _, stds = view.predict(samples, return_std=True)
            order = select_top_k_distinct(samples, stds, min(self.window, capacity))
            futures = pool.prefetch(samples[order])
            y = np.array([future.result() for future in futures])
            view.add_points(samples[order], y)
            points_used += len(order)


def __getattr__(name: str) -> Any:
    """``PipelinedExecutor``: the pre-PR-14 name of the one chunk executor.

    Kept importable because external tooling (``perfbench/tracing.py``)
    binds it by module and name; nothing in this package selects on it.
    """
    if name == "PipelinedExecutor":
        from repro.engine.batch import BatchExecutor

        return BatchExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
