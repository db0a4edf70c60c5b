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
   kernel hyperparameters included (the emulator holds no spatial index,
   so the payload is the training rows and the model) — together with the
   shard's :class:`~repro.engine.plan.ExecutionPlan` (the plan with its
   sharding fields cleared) as the snapshot every worker starts from,
3. resolves that plan inside a worker of a
   :class:`concurrent.futures.ProcessPoolExecutor`, one executor per shard,
   each shard drawing from its own :func:`~repro.rng.spawn_keyed` random
   stream — a worker runs up to :data:`SHARDS_PER_PROCESS` shards at once
   on threads of its own when the black box keeps shards waiting (see
   *Hiding UDF latency* below), and the pool is forked once per pool size
   and kept warm between queries (see *Process lifetime*), and
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
    emulator from scratch, the query takes a fresh
    :class:`~repro.core.shared_model.SharedEmulatorStore` from the
    process's model server
    (:func:`~repro.core.shared_model.serve_shared_store`, started by the
    first shared query and kept for later ones), seeded with the parent's
    current training matrix and released when the query ends.  Each
    worker binds an
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
crashed pool process — surface as :class:`~repro.exceptions.QueryError`;
a shard's failure reaches the parent once the other shards its worker runs
beside it have finished.

Process lifetime
----------------
Forking a pool costs a copy of the interpreter per worker plus the
copy-on-write faults the children then take, so pools outlive queries: a
query takes an idle pool of ``min(workers, shards)`` processes (forking one
only when none fits) and gives it back when its round ends.  Each worker
runs its shards on a thread pool of :data:`SHARDS_PER_PROCESS` threads that
lives as long as the worker — also when it runs one shard at a time — so
the per-thread state a shard warms — the blocking UDF path's event loop,
the inference workspace — serves the next query too; a forked child
starts with no such threads.  Two concurrent queries each run on a pool of
their own; at most one idle pool per pool size is kept, and any extra is
shut down.  A pool whose worker died is shut down, never given back, and a
retry round runs on a freshly forked pool.  Pools belong to the process
that forked them — a forked child starts with none — and close at
interpreter exit.  Idle pools are shut down before any pool or the model
server is forked, so only the pools of concurrently running queries ever
run beside a fork.

A warm worker runs the modules as they were when its pool was forked;
each shard reads the query's pickled snapshot, but a pickle refers to
functions and classes by module and name.  A query whose pickles name
``__main__`` — a script's or a notebook's own UDF, which may have been
defined or redefined since — therefore runs on a freshly forked pool.
Changes made after a fork to other modules (a monkeypatch), to
``os.environ`` or to ``sys.path`` do not reach that pool's workers.

Hiding UDF latency
------------------
A shard sleeps through every black-box call of its refinement loop that
waits — on a service, on I/O, on a sleep — so one shard at a time leaves
its core idle for as long as the calls wait.  A round therefore submits
each worker a contiguous *group* of up to ``S`` shards —
``max(min(workers, shards), ⌈shards / S⌉)`` groups of near-equal size, so
every process gets work before any doubles up — and the worker runs the
group's shards at once on its threads: one shard's GP work fills another's
UDF waits.  ``S`` follows what the sharded queries of the same UDF name
measured (:func:`shards_per_process`), each averaged with the estimate
before it: the share of a shard's time its
thread was on the CPU rather than waiting inside black-box calls
(:attr:`~repro.udf.base.UDF.waited_time`).  A black box that computes
in-process, or only charges a simulated cost, keeps its shards on the CPU,
and more shards per process would only contend for the interpreter lock:
such a UDF — and any UDF's first sharded query — runs one shard at a time
per worker.  Each shard still unpickles its own snapshot and draws from its
own keyed stream, so only the order in which shards run changes:
``"discard"`` outputs and UDF calls are those of one shard at a time, bit
for bit, whatever ``S`` is.  ``async_inflight`` /
``pipeline_lookahead`` in the plan apply *inside* every shard (overlapped
refinement windows, cross-tuple pipelining); they preserve the determinism
contract above (the async pipeline is completion-order invariant), but
shard outputs then follow the async refinement trajectory, which differs
numerically from the serial batched one at ``async_inflight > 1``.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor, wait
# CPython-private, but the very wrapper a process pool puts around a task's
# exception: it pickles the worker's traceback text along and rebuilds it
# as the exception's cause in the parent.
from concurrent.futures.process import _ExceptionWithTraceback
from dataclasses import dataclass
from multiprocessing import util as mp_util
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


#: Most shards one pool worker runs at once, and the threads it keeps for
#: them.  Every shard in flight holds its own unpickled snapshot, so this
#: also bounds the snapshots a worker holds.  A shard behind a 2 ms sleeping
#: black box keeps its thread on the CPU about 45 % of the time; two workers
#: on two cores, eight 8-tuple shards of such a UDF: 385–415 ms a query four
#: at a time, 440–460 at three, 490–520 at two and 740–775 one at a time.
SHARDS_PER_PROCESS = 4

#: Share of a worker's time its core may sit idle because every shard it
#: runs waits on the black box at once (see :func:`shards_per_process`).
#: Shared-merge shards of a 2 ms sleeping UDF measure busy 0.47–0.61 and run
#: fastest four at a time; shards that never wait measure 0.97–1.0.
IDLE_TARGET = 0.05

#: Per UDF name: the share of its shards' time its sharded queries measured
#: on the CPU, against waiting inside black-box calls — each query's share
#: averaged with the estimate before it, so one slow query moves it half
#: way.  Kept for the process, as the warm pools are: a query often comes
#: with a fresh engine and a fresh copy of its UDF, and the name is what the
#: engine keys a UDF's model by too.  Only the speed of a later query
#: depends on it.
_BUSY_SHARE: dict[str, float] = {}


def shards_per_process(busy: Optional[float]) -> int:
    """Shards a worker runs at once when each is on the CPU ``busy`` of its time.

    ``S`` shards whose waits fall independently leave the core idle
    ``(1 - busy) ** S`` of the time; this is the least ``S`` that brings
    that to :data:`IDLE_TARGET`, capped at :data:`SHARDS_PER_PROCESS`.  A
    shard that never waits (``busy`` 1) runs alone — more would only
    contend for the interpreter lock: eight shards of a UDF charging a
    simulated 2 ms a call took 302 ms a query one at a time and 356 four at
    a time (medians of 10 seeds).  ``None`` (nothing measured yet) is one
    at a time as well.
    """
    if busy is None or busy >= 1.0 - IDLE_TARGET:
        return 1
    if busy <= 0.0:
        return SHARDS_PER_PROCESS
    return min(SHARDS_PER_PROCESS, math.ceil(math.log(IDLE_TARGET) / math.log(1.0 - busy)))


def default_worker_count() -> int:
    """The core count, floored at one worker.

    A plan has no "default worker count" spelling (``workers=None`` means
    *unsharded*), so callers that want one worker process per core write
    ``ExecutionPlan(workers=default_worker_count())``.  Latency-bound
    shards need no more processes than cores: each worker runs up to
    :data:`SHARDS_PER_PROCESS` of them at once.
    """
    return max(1, os.cpu_count() or 1)


class _IdlePools:
    """The process pools kept warm between sharded queries.

    At most one idle pool per pool size.  :meth:`take` hands a query an
    idle pool that runs its shards as many at a time as a pool of exactly
    its size would, or forks a new one sized to the shards; :meth:`give_back`
    keeps it for the next query unless a pool of that size is already idle
    or a worker of it died.  Every fork happens once the idle pools are shut
    down, so no pool thread of this module runs beside it: the threads a
    forked child loses cannot hold a lock it needs.  A forked child starts
    with no pools (see :func:`_forget_parent_pools`).  :mod:`concurrent.futures`
    closes the pools at interpreter exit; a :mod:`multiprocessing` child exits
    through ``os._exit`` after joining its children instead, so :meth:`close`
    is also registered as a multiprocessing exit finalizer — without it such
    a child would wait on its idle workers forever.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[int, ProcessPoolExecutor] = {}
        self._finalizer: Optional[mp_util.Finalize] = None

    def take(self, workers: int, shards: int, fresh: bool = False) -> ProcessPoolExecutor:
        """A pool that runs ``shards`` shards ``min(workers, shards)`` at a time.

        An idle pool when one fits (the smallest); otherwise, or when
        ``fresh`` is set, a newly forked pool of ``min(workers, shards)``
        processes.
        """
        need = min(workers, shards)
        with self._lock:
            fits = [] if fresh else [size for size in self._idle if min(size, shards) == need]
            pool = self._idle.pop(min(fits)) if fits else None
        if pool is not None and not _broken(pool):
            return pool
        if pool is not None:  # a worker died while the pool sat idle
            pool.shutdown()
        self.close()
        return ProcessPoolExecutor(max_workers=need)

    def give_back(self, pool: ProcessPoolExecutor) -> None:
        """Keep an idle, healthy ``pool`` for the next query; shut it down otherwise."""
        size = pool._max_workers  # type: ignore[attr-defined]
        if not _broken(pool):
            with self._lock:
                if size not in self._idle:
                    if self._finalizer is None:
                        # Above the priority (10) at which each pool's call
                        # queue stops its feeder thread: shutting down after
                        # that would leave the workers' stop sentinels unsent.
                        self._finalizer = mp_util.Finalize(None, self.close, exitpriority=20)
                    self._idle[size] = pool
                    return
        pool.shutdown()

    def close(self) -> None:
        """Shut down every idle pool."""
        with self._lock:
            pools, self._idle = list(self._idle.values()), {}
        for pool in pools:
            pool.shutdown()


def _broken(pool: ProcessPoolExecutor) -> bool:
    """Whether a worker of ``pool`` died: such a pool accepts no more work."""
    return bool(pool._broken)  # type: ignore[attr-defined]


_POOLS = _IdlePools()


#: In a pool worker: the threads its shards run on (see :func:`_run_shards`).
_SHARD_THREADS: Optional[ThreadPoolExecutor] = None


def _forget_parent_pools() -> None:
    """In a forked child: start with no pools, and never close the parent's.

    The child's copies of the parent's pools drive the parent's workers, and
    the lock may have been held by a thread the child does not have.  Under
    a bare ``os.fork`` the parent's exit finalizer is inherited too; it is
    cancelled so the child's exit leaves the parent's pools alone.  The
    parent's shard threads do not exist in the child either.
    """
    global _POOLS, _SHARD_THREADS
    if _POOLS._finalizer is not None:
        _POOLS._finalizer.cancel()
    _POOLS = _IdlePools()
    _SHARD_THREADS = None


os.register_at_fork(after_in_child=_forget_parent_pools)


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
    udf_waited_time: float
    #: CPU seconds of the shard's thread (see :func:`shards_per_process`).
    cpu_time: float


def _run_shard(
    payload: bytes,
    shard_index: int,
    inputs: bytes,
    base_seed: int,
    shared_store=None,
) -> ShardResult:
    """One shard through its resolved plan, on a pool worker's shard thread.

    Unpickles a private copy of the engine snapshot (``payload``: the
    engine, the UDF and the shard plan) and the shard's ``inputs`` (its
    input distributions and the selection predicate, or ``None``), switches
    the engine onto the shard's keyed random stream, and resolves the
    shipped shard plan against it — exactly the executor the serial path
    would run for the same knobs.  Runs in a separate process, beside the
    other shards of its group (:func:`_run_shards`) — everything touched
    here is this shard's own copy, so its outputs and UDF calls are what it
    would report running alone, and everything returned is picked up by the
    parent.  Its UDF real time and phase timings are wall-clock that
    overlaps the other shards of the group: a call, or a phase, also counts
    the time it waits for the interpreter lock while sibling shards run.

    ``shared_store`` (a :class:`~repro.core.shared_model.SharedEmulatorStore`
    proxy, ``merge="shared"`` only) binds the shard's emulator to the live
    shared model: an :class:`~repro.core.shared_model.EmulatorSync` is
    installed on the UDF's processor so the shard seeds from — and
    publishes to — the store at tuple boundaries instead of relearning
    everything other shards already paid for.
    """
    cpu_before = time.thread_time()
    engine, udf, plan = pickle.loads(payload)
    distributions, predicate = pickle.loads(inputs)
    engine.reseed(spawn_keyed(base_seed, shard_index))
    calls_before = udf.call_count
    real_before = udf.real_time
    waited_before = udf.waited_time

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
    try:
        if predicate is None:
            outputs = executor.compute_batch(udf, list(distributions))
        else:
            outputs = executor.compute_batch_with_predicate(udf, list(distributions), predicate)
    finally:
        if olgapro is not None:
            # The worker outlives the shard: drop its hold on the query's store.
            olgapro.model_sync = None
    return ShardResult(
        shard_index=shard_index,
        outputs=outputs,
        timings=dict(executor.timings.seconds),
        udf_calls=udf.call_count - calls_before,
        udf_real_time=udf.real_time - real_before,
        udf_waited_time=udf.waited_time - waited_before,
        cpu_time=time.thread_time() - cpu_before,
    )


def _run_shards(
    payload: bytes,
    items: list[tuple[int, bytes]],
    base_seed: int,
    shared_store=None,
) -> list:
    """Pool-worker entry point: a group of shards, run at once.

    ``items`` are ``(shard_index, inputs)`` pairs; each runs through
    :func:`_run_shard` on the worker's shard threads, which are started on
    first use and kept for the worker's life.  Returns, once every shard of
    the group is done, one outcome per item, in order: the shard's
    :class:`ShardResult`, or the exception it raised, wrapped as a process
    pool wraps a task's exception so that it reaches the parent with the
    worker's traceback as its cause — the parent attributes a failure to
    the shard that raised it.
    """
    global _SHARD_THREADS
    if _SHARD_THREADS is None:
        _SHARD_THREADS = ThreadPoolExecutor(SHARDS_PER_PROCESS, thread_name_prefix="repro-shard")
    futures = [
        _SHARD_THREADS.submit(_run_shard, payload, i, inputs, base_seed, shared_store)
        for i, inputs in items
    ]
    outcomes = []
    for future in futures:
        error = future.exception()
        if error is None:
            outcomes.append(future.result())
            continue
        try:
            pickle.dumps(error)
        except Exception as why:  # sent as it is, it would fail the whole group's report
            error = RuntimeError(f"{error!r}, which cannot be sent back: {why}").with_traceback(
                error.__traceback__
            )
        outcomes.append(_ExceptionWithTraceback(error, error.__traceback__))
    return outcomes


def _groups(pending: list[int], count: int) -> list[list[int]]:
    """``pending`` cut into ``count`` contiguous runs whose sizes differ by at most one."""
    size, extra = divmod(len(pending), count)
    bounds = [k * size + min(k, extra) for k in range(count + 1)]
    return [pending[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


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
        """Bind the engine and the plan; no pool is taken until a compute call."""
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
            # An empty relation is a legal query input: no pool is taken
            # and no shard runs.  The shards' chunk executor, run on no
            # input (no side effects), reports the (zero) phase set a shard
            # would, so timing consumers never miss a phase.
            executor = self.plan.inner().resolve(self.engine)
            executor._run(udf, [], predicate)
            self.timings.merge(executor.timings)
            self.last_merged_points = 0
            self.last_dropped_points = 0
            return []
        if self.workers == 1:
            return self._run_serial(udf, distributions, predicate)

        base_seed = self.plan.parallel_seed
        if base_seed is None:
            base_seed = derive_seed(self.engine._rng)
        shards = list(iter_batches(distributions, self.batch_size))
        try:
            payload = pickle.dumps((self.engine, udf, self.plan.inner()))
            inputs = [pickle.dumps((shard, predicate)) for shard in shards]
        except Exception as exc:
            raise QueryError(
                "parallel execution requires a picklable engine, UDF and inputs "
                f"(snapshot for worker processes): {exc}"
            ) from exc
        # A warm worker holds the modules as they were when its pool was
        # forked, and a pickle names every function and class it refers to
        # by module.  A name in ``__main__`` — a script's or a notebook's own
        # UDF — may have been defined or redefined since, so such a query
        # runs on a freshly forked pool.  (A false match costs one fork.)
        fresh = any(b"__main__" in blob for blob in (payload, *inputs))

        shared_store = None
        if self.merge == "shared" and self.engine.strategy != "mc":
            from repro.core import shared_model

            if shared_model._server is None:
                # This call forks the model server: fork it beside no idle
                # pool's threads, as every pool is forked.
                _POOLS.close()
            # A fresh store on the process's model server; the last proxy to
            # it goes when this call returns, and the server drops the store.
            shared_store = shared_model.serve_shared_store()
            olgapro = self.engine.olgapro_for(udf, create=False)
            emulator = olgapro.emulator if olgapro is not None else None
            if emulator is not None and emulator.n_training:
                # A warm parent seeds the store, so every shard starts from
                # the full shared matrix and nobody re-pays an initial design.
                shared_store.append(emulator.gp.X_train, emulator.gp.y_train)
                shared_store.claim_initialization()
                if emulator._trained_hyperparameters:
                    shared_store.publish_hyperparameters(emulator.gp.kernel.theta)

        results_by_shard: dict[int, ShardResult] = {}
        retry = self.plan.retry
        shard_attempts = 1 if retry is None else int(retry.shard_attempts)
        pending = list(range(len(shards)))
        per_process = shards_per_process(_BUSY_SHARE.get(udf.name))
        attempt = 0
        while pending:
            attempt += 1
            crashed = self._run_round(
                pending, inputs, len(distributions), payload, base_seed, results_by_shard,
                shared_store, fresh=fresh or attempt > 1, per_process=per_process,
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
            udf.absorb_charges(result.udf_calls, result.udf_real_time, result.udf_waited_time)
        cpu = sum(result.cpu_time for result in results)
        waited = sum(result.udf_waited_time for result in results)
        if cpu + waited > 0.0:
            busy = cpu / (cpu + waited)
            before = _BUSY_SHARE.get(udf.name, busy)
            _BUSY_SHARE[udf.name] = (before + busy) / 2
        self.last_merged_points = 0
        self.last_dropped_points = 0
        if self.merge == "shared":
            self._refresh_parent_from_store(udf, shared_store)
        return outputs

    def _run_round(
        self,
        pending: list[int],
        inputs: list[bytes],
        n_tuples: int,
        payload: bytes,
        base_seed: int,
        results_by_shard: dict[int, "ShardResult"],
        shared_store=None,
        fresh: bool = False,
        per_process: int = 1,
    ) -> list[int]:
        """One pool round over ``pending`` shard indices.

        The round cuts ``pending`` into contiguous groups — at least one per
        pool process, and at most ``per_process`` shards in each — and
        submits one :func:`_run_shards` task per group.  Completed
        shards land in ``results_by_shard``; the indices of every group
        whose worker process died (a :class:`BrokenExecutor` crash —
        retryable, because re-running a shard under the same
        ``spawn_keyed`` stream is bit-identical) are returned for the
        caller's recovery loop.  Every *in-process* failure (a UDF raising
        inside the black box) is not retryable at shard granularity — the
        per-call retry policy already ran inside the worker — and raises a
        typed :class:`~repro.exceptions.ShardFailureError` naming the lowest
        failing shard, once the rest of its group and the round's other
        running groups are done and its queued groups cancelled.
        The round takes a warm pool of ``min(workers, len(pending))``
        processes (a fresh one when ``fresh`` is set) and gives it back
        idle; a pool that reported a crash is shut down instead, because a
        broken :class:`ProcessPoolExecutor` accepts no resubmissions — and a
        retry round is run with ``fresh`` set, on a newly forked pool.
        """
        need = min(self.workers, len(pending))
        groups = _groups(pending, max(need, -(-len(pending) // per_process)))
        crashed: list[int] = []
        futures: list = []
        pool = _POOLS.take(self.workers, len(pending), fresh)
        try:
            for group in groups:
                items = [(i, inputs[i]) for i in group]
                futures.append(pool.submit(_run_shards, payload, items, base_seed, shared_store))
            try:
                # Groups are contiguous and collected in order, so the first
                # failure met is the lowest failing shard of those that ran.
                for group, future in zip(groups, futures):
                    try:
                        outcomes = future.result()
                    except BrokenExecutor:
                        # The pool is dead: this group (and every other
                        # still-outstanding one, which fails the same way)
                        # goes back to the recovery loop.
                        crashed.extend(group)
                        continue
                    except Exception as exc:  # the group's task itself failed
                        raise self._shard_failure(group[0], n_tuples, base_seed, exc) from exc
                    for i, outcome in zip(group, outcomes):
                        if isinstance(outcome, QueryError):
                            raise outcome
                        if isinstance(outcome, BaseException):  # the black box's ReproErrors too
                            raise self._shard_failure(i, n_tuples, base_seed, outcome) from outcome
                        results_by_shard[i] = outcome
            except QueryError:
                # Fail fast: drop this round's groups still queued, so the
                # typed error is not delayed behind the remaining real-cost
                # UDF work, and wait out the ones already running.  (The
                # failing shard's own group ran to its end: a worker reports
                # a group at once.)
                for future in futures:
                    future.cancel()
                wait(futures)
                raise
        except BrokenExecutor:
            # The pool broke while groups were being submitted: everything
            # not yet collected goes back to the loop.
            crashed = [i for i in pending if i not in results_by_shard]
        finally:
            if all(future.done() for future in futures):
                _POOLS.give_back(pool)
            else:  # interrupted mid-round: the pool is not idle
                pool.shutdown(wait=False, cancel_futures=True)
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
