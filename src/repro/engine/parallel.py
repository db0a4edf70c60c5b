"""Process-pool sharded execution of UDF queries over uncertain relations.

The batched pipeline (:mod:`repro.engine.batch`) made the engine
set-at-a-time, but every chunk still runs on one core.  Chunks are
independent given a model snapshot — the succinct per-tuple state argument
of Antova et al. (arXiv:0707.1644) applied to this engine: once a tuple's
state is a compact input distribution plus a shared emulator, the relation
shards trivially.  :class:`ParallelExecutor` therefore

1. splits the input stream into fixed-size *shards* (``batch_size`` tuples —
   deliberately independent of the worker count so shard outputs do not
   depend on pool size),
2. pickles the execution engine once — per-UDF processors, GP emulator and
   kernel hyperparameters included (the emulator's reference R-tree is
   built only on access, so no engine run ships one) — together with the
   shard's :class:`~repro.engine.plan.ExecutionPlan` (the plan with its
   sharding fields cleared) as the snapshot every worker starts from,
3. resolves that plan inside a
   :class:`concurrent.futures.ProcessPoolExecutor` worker, one executor per
   shard, each shard drawing from its own :func:`~repro.rng.spawn_keyed`
   random stream, and
4. merges shard outputs (always in shard order) back into the parent; what
   the workers *learned* follows the *merge policy*.

Merge policies
--------------
``"discard"`` (default)
    Worker-added training points are thrown away.  With ``workers >= 2``
    the parent process never computes, so its model is byte-for-byte
    untouched; with ``workers = 1`` the in-process run is rolled back via a
    model snapshot (training data, factorization, kernel hyperparameters,
    hyperparameter-trained flag), while pure *accounting* state —
    UDF call counters, GP operation counts, ``tuples_processed`` — keeps
    the work it genuinely performed.  Shard outputs depend only on
    ``(seed, batch_size)`` — invariant to the worker count.
``"shared"``
    The **live shared model**: instead of every worker relearning the
    emulator from scratch, a
    :class:`~repro.core.shared_model.SharedEmulatorStore` is served from a
    model-server endpoint on the parent
    (:func:`~repro.core.shared_model.serve_shared_store`), seeded with the
    parent's current training matrix.  Each worker binds an
    :class:`~repro.core.shared_model.EmulatorSync` to its private emulator:
    a cold worker seeds itself from the store (the *first* worker pays for
    the one initial design, the rest absorb it for zero UDF calls), and
    every tuple boundary publishes the rows the worker just paid for while
    absorbing what other shards learned meanwhile.  After the run the
    parent absorbs the store in commit order — so the parent ends warm and
    total UDF calls stay close to the serial run instead of scaling with
    the worker count.  At ``workers=1`` no store exists and the policy is
    the serial fast path keeping its points (bit-identical to the serial
    batched run); at ``workers >= 2`` shard outputs depend on cross-shard
    absorption timing and are *not* worker-count-invariant (use
    ``"discard"`` when that invariance matters more than the UDF-call
    budget).

Determinism contract
--------------------
``workers=1`` bypasses the pool and the shard streams entirely and runs the
shard plan on the parent engine — numerically identical to the serial
path, same random stream, same model evolution.  ``workers >= 2`` uses the
keyed shard streams; see :mod:`repro.rng` for the full contract.  Worker
failures — a UDF raising inside the black box, an unpicklable engine, or a
crashed pool process — surface as :class:`~repro.exceptions.QueryError`.

Hiding UDF latency inside a shard
---------------------------------
Sharding overlaps *whole shards* across processes; with a black box whose
per-call latency dominates, each worker still sleeps through its own
refinement loop.  ``async_inflight`` / ``pipeline_lookahead`` in the plan
apply *inside* every shard (overlapped refinement windows, cross-tuple
pipelining), and ``workers=default_worker_count(2.0)`` raises the pool size
above the core count so latency-bound workers do not leave CPUs idle.
Both preserve the determinism contract above (the async pipeline is
completion-order invariant), but shard outputs then follow the async
refinement trajectory, which differs numerically from the serial batched
one at ``async_inflight > 1``.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Optional, Sequence

from repro.core.filtering import SelectionPredicate
from repro.distributions.base import Distribution
from repro.engine.batch import iter_batches
from repro.engine.executor import ComputedOutput, UDFExecutionEngine
from repro.exceptions import QueryError, ShardFailureError
from repro.rng import derive_seed, spawn_keyed
from repro.timing import PhaseTimings
from repro.udf.base import UDF

if TYPE_CHECKING:  # plan.py imports this module
    from repro.engine.plan import ExecutionPlan

MergePolicy = Literal["discard", "shared"]

MERGE_POLICIES: tuple[str, ...] = ("discard", "shared")


def default_worker_count(scale: float = 1.0) -> int:
    """The core count scaled by ``scale``, floored at one worker.

    A plan has no "default worker count" spelling (``workers=None`` means
    *unsharded*), so callers that want one shard per core write
    ``ExecutionPlan(workers=default_worker_count())``.  With
    UDF-latency-bound shards a worker spends most of its time sleeping in
    the black box; ``default_worker_count(2.0)`` runs two shards per core
    to keep the CPUs busy.
    """
    return max(1, round((os.cpu_count() or 1) * scale))


@dataclass
class ShardResult:
    """What one pool worker sends back for its shard (picklable)."""

    shard_index: int
    outputs: list[ComputedOutput]
    #: The worker's per-phase wall-clock, merged into the parent's report.
    timings: dict[str, float]
    #: UDF cost deltas, credited back to the parent UDF's accounting.
    udf_calls: int
    udf_real_time: float


def _run_shard(
    payload: bytes,
    shard_index: int,
    distributions: Sequence[Distribution],
    base_seed: int,
    predicate: Optional[SelectionPredicate],
    shared_store=None,
) -> ShardResult:
    """Pool-worker entry point: one shard through its resolved plan.

    Unpickles a private copy of the engine snapshot, switches it onto the
    shard's keyed random stream, and resolves the shipped shard plan
    against it — exactly the executor the serial path would run for the
    same knobs.  Runs in a separate process — everything touched here is a
    copy, and everything returned is picked up by the parent.

    ``shared_store`` (a :class:`~repro.core.shared_model.SharedEmulatorStore`
    proxy, ``merge="shared"`` only) binds the shard's emulator to the live
    shared model: an :class:`~repro.core.shared_model.EmulatorSync` is
    installed on the UDF's processor so the shard seeds from — and
    publishes to — the store at tuple boundaries instead of relearning
    everything other shards already paid for.
    """
    engine, udf, plan = pickle.loads(payload)
    engine.reseed(spawn_keyed(base_seed, shard_index))
    calls_before = udf.call_count
    real_before = udf.real_time

    executor = plan.resolve(engine)
    olgapro = engine.olgapro_for(udf) if shared_store is not None else None
    if olgapro is not None:
        from repro.core.shared_model import EmulatorSync

        # Every tuple boundary of the shard's commit loop — predicate
        # queries included — is an exchange, and the loop's last one
        # publishes the final tuple's rows before the worker reports back.
        olgapro.model_sync = EmulatorSync(
            shared_store,
            olgapro.emulator,
            max_training_points=int(olgapro.max_training_points),
            timings=executor.timings,
        )
    if predicate is None:
        outputs = executor.compute_batch(udf, list(distributions))
    else:
        outputs = executor.compute_batch_with_predicate(udf, list(distributions), predicate)
    return ShardResult(
        shard_index=shard_index,
        outputs=outputs,
        timings=dict(executor.timings.seconds),
        udf_calls=udf.call_count - calls_before,
        udf_real_time=udf.real_time - real_before,
    )


class ParallelExecutor:
    """Shards a tuple stream across a process pool of batched executors.

    Parameters
    ----------
    engine:
        The parent execution engine.  Its current per-UDF model state is the
        snapshot every worker starts from; merge policies decide what flows
        back into it.
    plan:
        The :class:`~repro.engine.plan.ExecutionPlan` this executor was
        resolved from:

        * ``workers`` — pool size.  ``workers=1`` runs the shard plan
          in-process (see the module docstring).
        * ``batch_size`` — tuples per shard, and the chunk size inside it.
          Independent of ``workers`` so shard outputs are invariant to the
          pool size.
        * ``merge`` — what worker-learned training points do to the parent
          model (module docstring).
        * ``parallel_seed`` — base seed for the per-shard
          :func:`~repro.rng.spawn_keyed` streams.  ``None`` derives one
          from the engine's stream (reproducible given the engine seed,
          but advancing it — set it for run-to-run stability of repeated
          calls).
        * ``retry`` — a :class:`~repro.udf.retry.RetryPolicy` enabling
          *shard-level recovery*: when a worker process dies (the pool
          reports :class:`concurrent.futures.BrokenExecutor`), the dead
          worker's shard is re-executed on a fresh pool up to
          ``retry.shard_attempts`` total attempts.  Re-execution is exact
          — the shard re-derives the same :func:`~repro.rng.spawn_keyed`
          stream from ``(base_seed, shard_index)`` and starts from the
          same pickled snapshot, so a recovered run is bit-identical to
          one that never crashed.  ``None`` (default) keeps the
          single-attempt fail-fast behaviour.  Exhausted attempts (and
          every non-crash worker failure) surface as
          :class:`~repro.exceptions.ShardFailureError` whose message
          carries the shard index, tuple range, base seed and spawn key —
          enough to re-run the failing shard in isolation from the
          message alone.
        * everything else (:meth:`~repro.engine.plan.ExecutionPlan.inner`)
          applies inside each shard; only the plan crosses the pickling
          boundary, transports are opened inside each worker process.
    """

    def __init__(self, engine: UDFExecutionEngine, plan: "ExecutionPlan"):
        """Bind the engine and the plan; no pool is created until a compute call."""
        self.engine = engine
        self.plan = plan
        self.workers = plan.workers
        self.batch_size = plan.chunk_size
        self.merge: MergePolicy = plan.merge
        #: Aggregate of per-worker phase timings (total work, not wall-clock —
        #: worker phases overlap in time).
        self.timings = PhaseTimings()
        #: Training points merged into the parent model by the last call.
        self.last_merged_points = 0
        #: Worker points that did not fit under the processor's
        #: ``max_training_points`` cap in the last merge.
        self.last_dropped_points = 0

    # -- public API ---------------------------------------------------------------
    def compute_batch(
        self, udf: UDF, input_distributions: Sequence[Distribution]
    ) -> list[ComputedOutput]:
        """Evaluate ``udf`` on every tuple, sharded across the pool."""
        return self._run(udf, list(input_distributions), predicate=None)

    def compute_batch_with_predicate(
        self,
        udf: UDF,
        input_distributions: Sequence[Distribution],
        predicate: SelectionPredicate,
    ) -> list[ComputedOutput]:
        """Predicate (online-filtering) evaluation, sharded across the pool."""
        return self._run(udf, list(input_distributions), predicate=predicate)

    # -- serial fast path ---------------------------------------------------------
    def _run_serial(
        self, udf: UDF, distributions: list[Distribution], predicate
    ) -> list[ComputedOutput]:
        """``workers=1``: the serial path on the parent engine, no pool.

        Numerically identical to resolving the shard plan directly under
        the same engine seed.  The merge policy still applies:
        ``"discard"`` rolls the model back afterwards.
        """
        olgapro = self.engine.olgapro_for(udf, create=False)
        state = olgapro.emulator.snapshot() if olgapro is not None else None
        n_before = olgapro.n_training if olgapro is not None else 0

        executor = self.plan.inner().resolve(self.engine)
        if predicate is None:
            outputs = executor.compute_batch(udf, distributions)
        else:
            outputs = executor.compute_batch_with_predicate(udf, distributions, predicate)
        self.timings.merge(executor.timings)

        ran = self.engine.olgapro_for(udf, create=False)
        added = (ran.n_training - n_before) if ran is not None else 0
        if self.merge == "discard" and added > 0:
            if state is not None:
                ran.emulator.restore(state)
            else:
                # The run created the processor; discarding means the engine
                # goes back to having no model for this UDF at all.
                self.engine._processors.pop(udf.name, None)
            self.last_merged_points = 0
        else:
            self.last_merged_points = added
        return outputs

    # -- sharded path -------------------------------------------------------------
    def _run(
        self, udf: UDF, distributions: list[Distribution], predicate
    ) -> list[ComputedOutput]:
        if not distributions:
            # An empty relation is a legal query input: no pool is spun up,
            # no shard runs, but the executor still reports a complete
            # (zero) phase record so timing consumers never miss a phase.
            phases = ("sampling", "inference", "refinement")
            if predicate is not None:
                phases += ("filtering",)
            if self.plan.pipeline_lookahead is not None:
                # Pipelined shards report a speculation phase; the empty run
                # must expose the same phase set.
                phases += ("speculation",)
            self.timings.ensure(*phases)
            self.last_merged_points = 0
            self.last_dropped_points = 0
            return []
        if self.workers == 1:
            return self._run_serial(udf, distributions, predicate)

        base_seed = self.plan.parallel_seed
        if base_seed is None:
            base_seed = derive_seed(self.engine._rng)
        try:
            payload = pickle.dumps((self.engine, udf, self.plan.inner()))
        except Exception as exc:
            raise QueryError(
                "parallel execution requires a picklable engine and UDF "
                f"(snapshot for worker processes): {exc}"
            ) from exc

        shared_manager = None
        shared_store = None
        if self.merge == "shared" and self.engine.strategy != "mc":
            from repro.core.shared_model import serve_shared_store

            shared_manager, shared_store = serve_shared_store()
            olgapro = self.engine.olgapro_for(udf, create=False)
            emulator = olgapro.emulator if olgapro is not None else None
            if emulator is not None and emulator.n_training:
                # A warm parent seeds the store, so every shard starts from
                # the full shared matrix and nobody re-pays an initial design.
                shared_store.append(emulator.gp.X_train, emulator.gp.y_train)
                shared_store.claim_initialization()
                if emulator._trained_hyperparameters:
                    shared_store.publish_hyperparameters(emulator.gp.kernel.theta)

        try:
            shards = list(iter_batches(distributions, self.batch_size))
            results_by_shard: dict[int, ShardResult] = {}
            retry = self.plan.retry
            shard_attempts = 1 if retry is None else int(retry.shard_attempts)
            pending = list(range(len(shards)))
            attempt = 0
            while pending:
                attempt += 1
                crashed = self._run_round(
                    pending, shards, payload, base_seed, predicate, results_by_shard,
                    shared_store,
                )
                if crashed and attempt >= shard_attempts:
                    raise self._shard_failure(
                        crashed[0],
                        len(distributions),
                        base_seed,
                        f"worker process died and the shard still failed after "
                        f"{attempt} attempt(s) (pool crash; raise "
                        f"retry.shard_attempts to re-execute the shard more times)",
                    )
                pending = crashed

            outputs: list[ComputedOutput] = []
            results = [results_by_shard[i] for i in range(len(shards))]  # shard order
            for result in results:
                outputs.extend(result.outputs)
                self.timings.merge(result.timings)
                udf.absorb_charges(result.udf_calls, result.udf_real_time)
            self.last_merged_points = 0
            self.last_dropped_points = 0
            if self.merge == "shared":
                self._refresh_parent_from_store(udf, shared_store)
        finally:
            if shared_manager is not None:
                shared_manager.shutdown()
        return outputs

    def _run_round(
        self,
        pending: list[int],
        shards: list[list[Distribution]],
        payload: bytes,
        base_seed: int,
        predicate,
        results_by_shard: dict[int, "ShardResult"],
        shared_store=None,
    ) -> list[int]:
        """One pool round over ``pending`` shard indices.

        Completed shards land in ``results_by_shard``; the indices whose
        worker process died (a :class:`BrokenExecutor` crash — retryable,
        because re-running a shard under the same ``spawn_keyed`` stream is
        bit-identical) are returned for the caller's recovery loop.  Every
        *in-process* failure (a UDF raising inside the black box) is not
        retryable at shard granularity — the per-call retry policy already
        ran inside the worker — and raises a typed
        :class:`~repro.exceptions.ShardFailureError` immediately.  Each
        round uses a fresh pool: a crashed :class:`ProcessPoolExecutor` is
        permanently broken and cannot accept resubmissions.
        """
        n_tuples = sum(len(shard) for shard in shards)
        crashed: list[int] = []
        try:
            with ProcessPoolExecutor(max_workers=min(self.workers, len(pending))) as pool:
                futures = {
                    i: pool.submit(
                        _run_shard, payload, i, shards[i], base_seed, predicate,
                        shared_store,
                    )
                    for i in pending
                }
                try:
                    for i, future in futures.items():
                        try:
                            results_by_shard[i] = future.result()
                        except BrokenExecutor:
                            # The pool is dead: this shard (and every other
                            # still-outstanding one, which fails the same
                            # way) goes back to the recovery loop.
                            crashed.append(i)
                        except QueryError:
                            raise
                        except Exception as exc:  # ReproError from the black box included
                            raise self._shard_failure(
                                i, n_tuples, base_seed, exc
                            ) from exc
                except QueryError:
                    # Fail fast: drop every shard still queued so the typed
                    # error is not delayed behind the remaining real-cost UDF
                    # work (the with-block's shutdown waits for running ones).
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
        except QueryError:
            raise
        except BrokenExecutor:
            # The crash surfaced at pool shutdown rather than through a
            # future: everything not yet collected goes back to the loop.
            crashed = [i for i in pending if i not in results_by_shard]
        return crashed

    def _shard_failure(
        self, shard_index: int, n_tuples: int, base_seed: int, cause
    ) -> ShardFailureError:
        """A typed shard failure whose message alone reproduces the shard.

        ``parallel shard <i> failed`` plus the half-open maths to rebuild the
        failing slice: the tuple range ``shard_index * batch_size ..``, the
        base seed, and the :func:`~repro.rng.spawn_keyed` key (the shard
        index itself) that re-derives the worker's exact random stream.
        """
        lo = shard_index * self.batch_size
        hi = min((shard_index + 1) * self.batch_size, n_tuples) - 1
        return ShardFailureError(
            f"parallel shard {shard_index} failed "
            f"(tuples {lo}..{hi} of {n_tuples}, base_seed={base_seed}, "
            f"spawn_key={shard_index}): {cause}"
        )

    # -- merge step ---------------------------------------------------------------
    def _refresh_parent_from_store(self, udf: UDF, shared_store) -> None:
        """``merge="shared"`` epilogue: absorb the store into the parent model.

        The store — not the shard results — is the source of truth: the
        parent absorbs its rows in commit order (the tuple-ordered sequence
        every worker's fenced appends produced), so the parent's final
        matrix is independent of which shard reported back first, and the
        absorption respects the processor's ``max_training_points`` cap.
        Every row in the store was paid for by exactly one worker (and
        charged back to the parent UDF through the shard results), so the
        absorption spends zero UDF calls.  Wall-clock lands under the
        ``model_refresh`` phase; merged/dropped counts land in
        :attr:`last_merged_points` / :attr:`last_dropped_points`.
        """
        self.timings.ensure("model_refresh", "model_append")
        if shared_store is None or self.engine.strategy == "mc":
            return
        from repro.core.shared_model import EmulatorSync

        # A cold parent creates the processor here so the shared rows warm it.
        olgapro = self.engine.olgapro_for(udf)
        emulator = olgapro.emulator
        sync = EmulatorSync(
            shared_store,
            emulator,
            max_training_points=int(olgapro.max_training_points),
            timings=self.timings,
        )
        self.last_merged_points = sync.refresh()
        self.last_dropped_points = sync.dropped_rows
        if emulator.n_training and not emulator._trained_hyperparameters:
            theta = shared_store.hyperparameters()
            if theta is not None:
                emulator.gp.set_hyperparameters(theta)
                emulator._trained_hyperparameters = True
