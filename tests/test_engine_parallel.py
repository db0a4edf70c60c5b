"""Process-pool sharded execution: determinism, merging, and failure modes.

Contracts under test (see :mod:`repro.engine.parallel` and :mod:`repro.rng`):

* ``workers=1`` is numerically identical to the serial
  :class:`~repro.engine.batch.BatchExecutor` path under the same engine seed;
* under the ``"discard"`` merge policy, shard outputs are invariant to the
  worker count for any ``workers >= 2`` (fixed shard size, keyed streams);
* ``"discard"`` leaves the parent model untouched, ``"shared"`` warms it
  from the live store;
* worker failures — black-box exceptions, unpicklable state, dead pool
  processes — surface as typed :class:`~repro.exceptions.QueryError`\\ s;
* worker pools and the model server outlive a query: later queries run on
  the same processes (concurrent ones on pools of their own) with outputs
  unchanged, a pool has no more workers than its query runs shards at once,
  a script's own UDFs run as defined at query time, a dead server is
  replaced, and nothing outlives the process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import shared_model
from repro.core.accuracy import AccuracyRequirement
from repro.core.filtering import SelectionPredicate
from repro.engine import (
    ExecutionPlan,
    Query,
    UDFExecutionEngine,
    generate_galaxy_relation,
    parallel,
)
from repro.exceptions import QueryError
from repro.udf.base import UDF
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf

RTOL = 1e-8

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)

PREDICATE = SelectionPredicate(low=0.0, high=1.5, threshold=0.1)


def _emulator_of(engine, udf):
    """The GP emulator behind ``udf``'s processor, or ``None`` (mc / cold)."""
    olgapro = engine.olgapro_for(udf, create=False)
    return None if olgapro is None else olgapro.emulator


def _fixture(strategy="gp", n_tuples=10, seed=31, stream_seed=4, **engine_kwargs):
    """Fresh (udf, engine, distributions) triple with deterministic seeds."""
    udf = reference_function("F1", simulated_eval_time=1e-3)
    kwargs = dict(engine_kwargs)
    if strategy == "gp":
        kwargs.setdefault("n_samples", 200)
    engine = UDFExecutionEngine(
        strategy=strategy, requirement=REQUIREMENT, random_state=seed, **kwargs
    )
    dists = list(
        input_stream(
            workload_for_udf(udf), n_tuples, random_state=np.random.default_rng(stream_seed)
        )
    )
    return udf, engine, dists


def _assert_same_outputs(a_outputs, b_outputs):
    assert len(a_outputs) == len(b_outputs)
    for i, (a, b) in enumerate(zip(a_outputs, b_outputs)):
        assert a.dropped == b.dropped, i
        assert np.isclose(a.existence_probability, b.existence_probability, rtol=RTOL), i
        if a.distribution is not None:
            assert np.allclose(a.distribution.samples, b.distribution.samples, rtol=RTOL), i
            assert np.isclose(a.error_bound, b.error_bound, rtol=RTOL), i


# ---------------------------------------------------------------------------
# workers=1: identity with the serial batched path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["mc", "gp"])
def test_workers_1_matches_serial_batched(strategy):
    udf_a, engine_a, dists_a = _fixture(strategy)
    serial = ExecutionPlan(batch_size=4).resolve(engine_a).compute_batch(udf_a, dists_a)
    udf_b, engine_b, dists_b = _fixture(strategy)
    parallel = ExecutionPlan(workers=1, batch_size=4).resolve(engine_b).compute_batch(
        udf_b, dists_b
    )
    _assert_same_outputs(serial, parallel)
    assert udf_a.call_count == udf_b.call_count


def test_workers_1_discard_rolls_the_model_back():
    udf, engine, dists = _fixture("gp")
    executor = ExecutionPlan(workers=1, batch_size=4, merge="discard").resolve(engine)
    executor.compute_batch(udf, dists)
    # The run created the processor, but discard must leave the engine as if
    # it had never run: no model for this UDF.
    assert _emulator_of(engine, udf) is None
    assert executor.last_merged_points == 0


def test_workers_1_discard_restores_an_existing_model():
    udf, engine, dists = _fixture("gp")
    # Warm the model first, then run with discard: n_training must not move.
    engine.compute(udf, dists[0])
    emulator = _emulator_of(engine, udf)
    n_before = emulator.n_training
    X_before = emulator.gp.X_train
    ExecutionPlan(workers=1, batch_size=4, merge="discard").resolve(engine).compute_batch(
        udf, dists[1:]
    )
    assert emulator.n_training == n_before
    assert np.array_equal(emulator.gp.X_train, X_before)


# ---------------------------------------------------------------------------
# workers >= 2: shard invariance and merge policies
# ---------------------------------------------------------------------------

def _sharded_run(workers, merge="discard", batch_size=4, udf=None, **kwargs):
    fixture_udf, engine, dists = _fixture("gp", **kwargs)
    udf = fixture_udf if udf is None else udf
    executor = ExecutionPlan(
        workers=workers, batch_size=batch_size, merge=merge, parallel_seed=99
    ).resolve(engine)
    outputs = executor.compute_batch(udf, dists)
    return outputs, engine, udf, executor


def test_discard_outputs_invariant_to_worker_count():
    reference, _, _, _ = _sharded_run(workers=2)
    for workers in (3, 4):
        outputs, _, _, _ = _sharded_run(workers=workers)
        _assert_same_outputs(reference, outputs)


def test_input_smaller_than_one_shard():
    outputs, _, _, _ = _sharded_run(workers=4, n_tuples=3, batch_size=8)
    assert len(outputs) == 3


def test_empty_input_returns_empty():
    udf, engine, _ = _fixture("gp")
    assert ExecutionPlan(workers=4).resolve(engine).compute_batch(udf, []) == []


def test_empty_input_emits_zero_phase_timings():
    """An empty relation is a legal input: no pool, no crash, zero phases."""
    udf, engine, _ = _fixture("gp")
    executor = ExecutionPlan(workers=4).resolve(engine)
    assert executor.compute_batch(udf, []) == []
    for phase in ("sampling", "inference", "refinement"):
        assert phase in executor.timings.seconds
        assert executor.timings.get(phase) == 0.0
    assert executor.last_merged_points == 0
    assert executor.last_dropped_points == 0
    # The predicate path degenerates the same way.
    assert executor.compute_batch_with_predicate(udf, [], PREDICATE) == []
    # A sharded plan with a lookahead and a predicate reports exactly the
    # phase set of the unsharded plan its shards run.
    plan = ExecutionPlan(workers=2, pipeline_lookahead=2)
    sharded = plan.resolve(engine)
    inner = plan.inner().resolve(engine)
    assert sharded.compute_batch_with_predicate(udf, [], PREDICATE) == []
    assert inner.compute_batch_with_predicate(udf, [], PREDICATE) == []
    assert set(sharded.timings.seconds) == set(inner.timings.seconds)
    assert "filtering" in sharded.timings.seconds
    assert all(value == 0.0 for value in sharded.timings.seconds.values())


def test_batch_size_larger_than_relation_yields_one_shard_with_timings():
    """batch_size > len(relation): one shard, merged timings, full outputs."""
    udf, engine, dists = _fixture("gp", n_tuples=3)
    executor = ExecutionPlan(workers=4, batch_size=4, parallel_seed=9).resolve(engine)
    outputs = executor.compute_batch(udf, dists)
    assert len(outputs) == 3
    assert executor.timings.get("sampling") > 0.0
    assert executor.timings.get("inference") > 0.0


def test_default_merge_leaves_the_parent_model_untouched():
    """``ExecutionPlan(workers=2)`` with no ``merge``: byte-for-byte untouched.

    A warm parent keeps exactly the model it had (training data, targets,
    hyperparameters); a cold parent stays cold.
    """
    udf, engine, dists = _fixture("gp")
    engine.compute(udf, dists[0])
    emulator = _emulator_of(engine, udf)
    before = (
        emulator.gp.X_train.tobytes(), emulator.gp.y_train.tobytes(),
        emulator.gp.kernel.theta.tobytes(), emulator.gp.version,
    )
    executor = ExecutionPlan(workers=2, batch_size=4, parallel_seed=99).resolve(engine)
    assert executor.merge == "discard"
    executor.compute_batch(udf, dists[1:])
    assert _emulator_of(engine, udf) is emulator
    assert before == (
        emulator.gp.X_train.tobytes(), emulator.gp.y_train.tobytes(),
        emulator.gp.kernel.theta.tobytes(), emulator.gp.version,
    )
    assert executor.last_merged_points == 0

    cold_udf, cold_engine, cold_dists = _fixture("gp")
    ExecutionPlan(workers=2, batch_size=4, parallel_seed=99).resolve(
        cold_engine
    ).compute_batch(cold_udf, cold_dists)
    assert _emulator_of(cold_engine, cold_udf) is None


def test_shared_merge_respects_max_training_points():
    udf, engine, dists = _fixture("gp", max_training_points=30)
    executor = ExecutionPlan(
        workers=2, batch_size=4, merge="shared", parallel_seed=5
    ).resolve(engine)
    executor.compute_batch(udf, dists)
    emulator = _emulator_of(engine, udf)
    assert 0 < emulator.n_training <= 30
    assert emulator.n_training == executor.last_merged_points


def test_parallel_credits_udf_cost_to_parent():
    _, _, udf, _ = _sharded_run(workers=2, merge="discard")
    assert udf.call_count > 0


@pytest.mark.parametrize("async_inflight", [None, 4])
def test_parallel_charge_accounting_is_exact(async_inflight):
    """Worker deltas are absorbed exactly once — also on the composed path.

    Worker shards charge their private UDF copies (through the async thread
    pool when ``async_inflight`` composes) and the parent absorbs each
    worker's whole delta once; the parent's total must therefore equal the
    sum of the per-tuple charges reported in the outputs — an over-count
    from double absorption, or an under-count from a lost delta, breaks the
    equality exactly.
    """
    udf, engine, dists = _fixture("gp", n_tuples=8)
    executor = ExecutionPlan(
        workers=2, batch_size=4, parallel_seed=99, async_inflight=async_inflight
    ).resolve(engine)
    outputs = executor.compute_batch(udf, dists)
    assert udf.call_count == sum(output.udf_calls for output in outputs)
    assert udf.call_count > 0
    # Real-time accounting follows the same single-absorption path: with
    # workers >= 2 the parent performs no black-box work itself, so a
    # strictly positive real_time proves the workers' wall-clock deltas
    # were credited back (a lost delta would leave it exactly zero).
    assert udf.real_time > 0.0


def test_parallel_merges_worker_timings():
    _, _, _, executor = _sharded_run(workers=2)
    assert executor.timings.get("sampling") > 0.0
    assert executor.timings.get("inference") > 0.0


# ---------------------------------------------------------------------------
# merge="shared": the live shared model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    # At 200 draws the Hoeffding slack alone is ~0.1: a threshold of 0.3
    # leaves the drop test room to drop.
    "predicate", [None, SelectionPredicate(low=0.0, high=1.5, threshold=0.3)],
    ids=["apply", "select"],
)
def test_shared_workers_1_is_bit_identical_to_serial_batched(predicate):
    """The CI-gated determinism contract: no store, no sync, same bits."""
    def run(plan):
        udf, engine, dists = _fixture("gp", stream_seed=9)
        executor = plan.resolve(engine)
        if predicate is None:
            return udf, engine, executor.compute_batch(udf, dists)
        return udf, engine, executor.compute_batch_with_predicate(udf, dists, predicate)

    udf_a, engine_a, serial = run(ExecutionPlan(batch_size=4))
    udf_b, engine_b, shared = run(ExecutionPlan(workers=1, batch_size=4, merge="shared"))
    assert len(serial) == len(shared)
    if predicate is not None:
        dropped = [output.dropped for output in serial]
        assert any(dropped) and not all(dropped)
    for a, b in zip(serial, shared):
        assert a.dropped == b.dropped
        assert a.existence_probability == b.existence_probability
        if not a.dropped:
            assert np.array_equal(a.distribution.samples, b.distribution.samples)
        assert a.error_bound == b.error_bound
        assert a.udf_calls == b.udf_calls
    assert udf_a.call_count == udf_b.call_count
    # Like the serial batched path, the run leaves the engine warm.
    emulator_a = _emulator_of(engine_a, udf_a)
    emulator_b = _emulator_of(engine_b, udf_b)
    assert np.array_equal(emulator_a.gp.X_train, emulator_b.gp.X_train)


class _RecordingSync:
    """A model-sync seam that records the model size at every exchange."""

    def __init__(self, olgapro):
        self.olgapro = olgapro
        self.exchanges = []

    def sync(self):
        self.exchanges.append(self.olgapro.n_training)

    def seed_or_wait(self, n_points):
        return False

    def publish_hyperparameters(self):
        pass


def test_predicate_query_exchanges_at_every_tuple_boundary():
    """A select query meets the store exactly where an apply query does: before
    each tuple refines and after the last — never after paying for rows."""
    exchanges = {}
    for predicate in (None, PREDICATE):
        udf, engine, dists = _fixture("gp", stream_seed=9)
        sync = engine.olgapro_for(udf).model_sync = _RecordingSync(engine.olgapro_for(udf))
        engine.compute_with_plan(udf, dists, ExecutionPlan(batch_size=4), predicate=predicate)
        exchanges[predicate] = sync.exchanges
    assert exchanges[PREDICATE] == exchanges[None]
    # One exchange after the initial design, one per tuple, one per chunk end.
    assert len(exchanges[PREDICATE]) == 1 + len(dists) + 3


def test_shared_saves_udf_calls_versus_discard():
    """Shards learn from each other live instead of relearning from scratch.

    At minimum the shared run saves all but one initial training design
    (the store elects a single initializer), and mid-stream absorption
    flattens every shard's learning curve further, so the total must come
    in strictly below the cold-shard policy's.
    """
    _, _, udf_discard, _ = _sharded_run(workers=2, merge="discard")
    _, _, udf_shared, _ = _sharded_run(workers=2, merge="shared")
    assert udf_shared.call_count < udf_discard.call_count


def test_shared_warms_parent_from_the_store_and_keeps_charges_exact():
    outputs, engine, udf, executor = _sharded_run(workers=2, merge="shared")
    emulator = _emulator_of(engine, udf)
    assert emulator is not None
    # The parent ends warm: the store's commit order is the merge order,
    # and a cold parent's growth equals the merged-point count.
    assert emulator.n_training == executor.last_merged_points > 0
    # No row entered the parent model twice (the store dedupes).
    X = emulator.gp.X_train
    assert len({row.tobytes() for row in X}) == X.shape[0]
    # Store-absorbed rows are never re-charged: the parent's aggregate
    # equals the sum of per-tuple charges exactly.
    assert udf.call_count == sum(output.udf_calls for output in outputs)
    assert udf.call_count > 0
    # Sync overhead is observable in the merged phase record.
    assert "model_refresh" in executor.timings.seconds
    assert "model_append" in executor.timings.seconds


# ---------------------------------------------------------------------------
# Predicate (SelectUDF) path
# ---------------------------------------------------------------------------

def test_predicate_workers_1_matches_serial():
    udf_a, engine_a, dists_a = _fixture("gp", stream_seed=9)
    serial = ExecutionPlan(batch_size=3).resolve(engine_a).compute_batch_with_predicate(
        udf_a, dists_a, PREDICATE
    )
    udf_b, engine_b, dists_b = _fixture("gp", stream_seed=9)
    parallel = ExecutionPlan(
        workers=1, batch_size=3
    ).resolve(engine_b).compute_batch_with_predicate(udf_b, dists_b, PREDICATE)
    _assert_same_outputs(serial, parallel)


def test_predicate_outputs_invariant_to_worker_count():
    results = {}
    for workers in (2, 4):
        udf, engine, dists = _fixture("gp", stream_seed=9)
        executor = ExecutionPlan(
            workers=workers, batch_size=3, parallel_seed=17
        ).resolve(engine)
        results[workers] = executor.compute_batch_with_predicate(udf, dists, PREDICATE)
    _assert_same_outputs(results[2], results[4])


def test_select_udf_operator_runs_parallel():
    relation = generate_galaxy_relation(8, random_state=22)
    udf = reference_function("F1", simulated_eval_time=1e-4)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=5, n_samples=200
    )
    result = (
        Query(relation)
        .where_udf(udf, ["ra_offset", "dec_offset"], alias="f",
                   low=0.0, high=1.5, threshold=0.05,
                   plan=ExecutionPlan(batch_size=4, workers=2, merge="discard", parallel_seed=3))
        .run(engine)
    )
    for row in result:
        assert 0.0 <= row.existence_probability <= 1.0
        assert row["f"].size > 0


def test_apply_udf_operator_workers_1_matches_batched():
    def run(workers):
        relation = generate_galaxy_relation(8, random_state=21)
        udf = reference_function("F1", simulated_eval_time=1e-4)
        engine = UDFExecutionEngine(
            strategy="gp", requirement=REQUIREMENT, random_state=13, n_samples=150
        )
        return (
            Query(relation)
            .apply_udf(udf, ["ra_offset", "dec_offset"], alias="f",
                       plan=ExecutionPlan(batch_size=3, workers=workers))
            .run(engine)
        )

    plain = run(None)
    parallel = run(1)
    assert len(plain) == len(parallel)
    for a, b in zip(plain, parallel):
        assert np.allclose(a["f"].samples, b["f"].samples, rtol=RTOL)


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------

def _exploding(x):
    raise RuntimeError("black box exploded")


def _hard_crash(x):
    os._exit(13)  # simulates a segfaulting worker: no exception, just death


def test_worker_udf_exception_surfaces_as_query_error():
    udf = UDF(_exploding, dimension=2, name="exploding",
              domain=(np.zeros(2), np.full(2, 10.0)))
    _, engine, dists = _fixture("gp")
    executor = ExecutionPlan(workers=2, batch_size=4, parallel_seed=1).resolve(engine)
    with pytest.raises(QueryError, match="shard"):
        executor.compute_batch(udf, dists)


def test_dead_worker_process_surfaces_as_query_error():
    udf = UDF(_hard_crash, dimension=2, name="crashing",
              domain=(np.zeros(2), np.full(2, 10.0)))
    _, engine, dists = _fixture("gp")
    executor = ExecutionPlan(workers=2, batch_size=4, parallel_seed=1).resolve(engine)
    with pytest.raises(QueryError):
        executor.compute_batch(udf, dists)


def test_unpicklable_udf_surfaces_as_query_error():
    udf = UDF(lambda x: float(x[0]), dimension=2, name="lambda",
              domain=(np.zeros(2), np.full(2, 10.0)))
    _, engine, dists = _fixture("gp")
    executor = ExecutionPlan(workers=2, batch_size=4, parallel_seed=1).resolve(engine)
    with pytest.raises(QueryError, match="picklable"):
        executor.compute_batch(udf, dists)


# ---------------------------------------------------------------------------
# Warm processes: the worker pool and the model server outlive a query
# ---------------------------------------------------------------------------

def _assert_bitwise(a_outputs, b_outputs):
    assert len(a_outputs) == len(b_outputs)
    for i, (a, b) in enumerate(zip(a_outputs, b_outputs)):
        assert np.array_equal(a.distribution.samples, b.distribution.samples), i
        assert a.error_bound == b.error_bound, i
        assert a.existence_probability == b.existence_probability, i


class _RecordPid:
    """A two-input black box that leaves the id of each process calling it in a folder."""

    def __init__(self, folder: str) -> None:
        self.folder = folder

    def __call__(self, x):
        Path(self.folder, str(os.getpid())).touch()
        return float(np.sin(x[0]) + np.cos(x[1]))


def _shard_pids(tmp_path, name, merge):
    """The pids the shards of one ``workers=2`` query ran on."""
    folder = tmp_path / name
    folder.mkdir()
    udf = UDF(_RecordPid(str(folder)), dimension=2, name="pid-recorder",
              domain=(np.zeros(2), np.full(2, 10.0)))
    _sharded_run(workers=2, merge=merge, udf=udf)
    return {int(path.name) for path in folder.iterdir()}


def _server_pid():
    return shared_model._server._process.pid


def test_consecutive_queries_run_on_the_same_workers_and_server(tmp_path):
    # Idle pools are shut down before the server is forked: start it first.
    shared_model.serve_shared_store()
    discard = _shard_pids(tmp_path, "discard", "discard")
    shared = _shard_pids(tmp_path, "shared", "shared")
    server = vars(shared_model).get("_server")
    again = _shard_pids(tmp_path, "again", "shared")
    # Three queries of three shards each, all on the pool's two workers.
    assert len(discard | shared | again) <= 2
    assert discard | shared | again <= set(parallel._POOLS._idle[2]._processes)
    assert os.getpid() not in discard | shared | again
    assert shared_model._server is server
    assert server._process.is_alive()


def test_a_query_forks_no_more_workers_than_it_runs_shards_at_once():
    parallel._POOLS.close()
    before = set(multiprocessing.active_children())
    _sharded_run(workers=4, batch_size=10)  # ten tuples: one shard
    assert len(set(multiprocessing.active_children()) - before) == 1
    # Three shards two at a time do not fit a pool of one: it is shut down
    # before a pool of two is forked.
    _sharded_run(workers=2)
    assert set(parallel._POOLS._idle) == {2}
    assert len(set(multiprocessing.active_children()) - before) == 2


def test_discard_on_warm_processes_matches_freshly_forked_ones():
    # Warm the pool on other work first: a different merge, seed and stream.
    _sharded_run(workers=2, merge="shared", seed=5, stream_seed=6)
    warm, _, _, _ = _sharded_run(workers=2)
    parallel._POOLS.close()
    cold, _, _, _ = _sharded_run(workers=2)
    _assert_bitwise(warm, cold)


def test_concurrent_queries_take_pools_of_their_own(monkeypatch):
    seeds = (31, 32)
    sequential = {seed: _sharded_run(workers=2, seed=seed)[0] for seed in seeds}
    taken = []
    both_asking = threading.Barrier(len(seeds), timeout=30)
    take = parallel._POOLS.take

    def take_together(*args):
        both_asking.wait()  # neither query holds a pool yet
        pool = take(*args)
        taken.append(pool)
        return pool

    monkeypatch.setattr(parallel._POOLS, "take", take_together)
    concurrent = {}

    def run(seed):
        concurrent[seed] = _sharded_run(workers=2, seed=seed)[0]

    threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert len(taken) == 2 and taken[0] is not taken[1]
    for seed in seeds:
        _assert_bitwise(concurrent[seed], sequential[seed])
    # One of the two pools is kept idle, the other was shut down.
    assert parallel._POOLS._idle[2] in taken
    assert sum(pool._processes is None for pool in taken) == 1


def test_a_dead_model_server_is_replaced_by_the_next_shared_query():
    _sharded_run(workers=2, merge="shared")
    dead = shared_model._server._process
    os.kill(dead.pid, signal.SIGKILL)
    dead.join(timeout=10)
    assert not dead.is_alive()
    outputs, engine, udf, executor = _sharded_run(workers=2, merge="shared")
    assert len(outputs) == 10
    assert executor.last_merged_points > 0  # the parent absorbed the new server's store
    assert _server_pid() != dead.pid


def test_the_model_server_drops_each_query_store():
    shared_model.serve_shared_store()  # the server is up; its store is dropped again
    manager = shared_model._server
    baseline = manager._number_of_objects()
    for seed in (41, 42, 43):
        _sharded_run(workers=2, merge="shared", seed=seed)
    # A worker drops its proxy just after it reports back.
    deadline = time.monotonic() + 10
    while manager._number_of_objects() != baseline and time.monotonic() < deadline:
        time.sleep(0.05)
    assert manager._number_of_objects() == baseline


def _child_query(queue):
    _sharded_run(workers=2, merge="shared")
    queue.put((set(parallel._POOLS._idle[2]._processes), _server_pid()))


def test_a_forked_child_forks_its_own_workers_and_server():
    _sharded_run(workers=2, merge="shared")
    parent_pool = set(parallel._POOLS._idle[2]._processes)
    parent_server = _server_pid()
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_child_query, args=(queue,))
    child.start()
    child_pool, child_server = queue.get(timeout=120)
    # The child exits, closing the pool and the server it forked.
    child.join(timeout=30)
    assert child.exitcode == 0
    assert not child_pool & parent_pool
    assert child_server != parent_server


def _script_env():
    """The environment of a child interpreter that imports this checkout's ``repro``."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


_REDEFINED_MAIN_UDF = """
import hashlib
import numpy as np
from repro.core.accuracy import AccuracyRequirement
from repro.engine import ExecutionPlan, UDFExecutionEngine, parallel
from repro.udf.base import UDF
from repro.workloads.generators import input_stream, workload_for_udf

def digest(func):
    udf = UDF(func, dimension=2, name="script-udf", domain=(np.zeros(2), np.full(2, 10.0)))
    engine = UDFExecutionEngine("gp", requirement=AccuracyRequirement(0.15, 0.05),
                                random_state=3, n_samples=150)
    dists = list(input_stream(workload_for_udf(udf), 8, np.random.default_rng(3)))
    plan = ExecutionPlan(batch_size=4, workers=2, parallel_seed=7)
    outputs = engine.compute_with_plan(udf, dists, plan).outputs
    return hashlib.sha256(b"".join(o.distribution.samples.tobytes() for o in outputs)).hexdigest()

def f(x):
    return float(np.sin(x[0]) + np.cos(x[1]))

first = digest(f)

def g(x):  # defined after the first query's pool was forked
    return float(np.sin(x[0]) * np.cos(x[1]))

def f(x):  # redefined under the same name
    return float(np.cos(x[0]) + np.sin(x[1]))

warm = [digest(g), digest(f)]
parallel._POOLS.close()
print(first, *warm, digest(g), digest(f))
"""


def test_a_script_s_own_udfs_run_as_defined_at_query_time():
    process = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_REDEFINED_MAIN_UDF)], env=_script_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert process.returncode == 0, process.stderr
    first, warm_g, warm_f, fresh_g, fresh_f = process.stdout.split()
    assert (warm_g, warm_f) == (fresh_g, fresh_f)
    assert warm_f != first  # the redefinition is what ran


_ONE_SHARED_QUERY = """
import time
import numpy as np
from repro.core.accuracy import AccuracyRequirement
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf

udf = reference_function("F3", simulated_eval_time=0.0)
engine = UDFExecutionEngine("gp", requirement=AccuracyRequirement(0.15, 0.05),
                            random_state=3, n_samples=150)
dists = list(input_stream(workload_for_udf(udf), 8, np.random.default_rng(3)))
engine.compute_with_plan(udf, dists, ExecutionPlan(batch_size=4, workers=2, merge="shared"))
print(time.time(), flush=True)
"""


def test_a_process_leaves_nothing_running_at_exit():
    # A session of its own, so its process group holds it and all it forked.
    process = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(_ONE_SHARED_QUERY)], env=_script_env(),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        # Stdout reaches EOF only once every process holding it is gone.
        stdout, _ = process.communicate(timeout=120)
        returned_at = float(stdout.split()[-1])
        assert process.returncode == 0
        assert time.time() - returned_at < 10
        with pytest.raises(ProcessLookupError):
            os.killpg(process.pid, 0)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()
