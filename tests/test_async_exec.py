"""Asynchronous overlapped refinement: determinism, identity, thread safety.

Contracts under test (see :mod:`repro.engine.async_exec`):

* ``async_inflight=1`` is bit-identical to the serial batched path under
  the same seed — outputs, error bounds and UDF call counts;
* completion-order permutations of in-flight UDF results (forced through
  point-dependent latency) yield identical GP state and identical query
  output at ``async_inflight > 1``;
* UDF charge accounting is exact under concurrent evaluation, and the
  in-flight gauge proves calls genuinely overlapped;
* the emulator's snapshot fence rejects absorbs against a mutated model;
* the ``async_inflight`` knob plumbs through the engine, the operators,
  the query builder and the per-shard parallel workers.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.core.emulator import GPEmulator
from repro.core.filtering import SelectionPredicate
from repro.engine import (
    ExecutionPlan,
    Query,
    UDFExecutionEngine,
    default_worker_count,
    generate_galaxy_relation,
)
from repro.engine.async_exec import AsyncEvaluationDriver, chunk_schedule
from repro.engine.transport import ThreadPoolTransport
from repro.exceptions import GPError
from repro.udf.base import UDF
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)

PREDICATE = SelectionPredicate(low=0.0, high=1.5, threshold=0.1)


def _emulator_of(engine, udf):
    """The GP emulator behind ``udf``'s processor, or ``None`` (mc / cold)."""
    olgapro = engine.olgapro_for(udf, create=False)
    return None if olgapro is None else olgapro.emulator


def _fixture(
    n_tuples=6,
    seed=31,
    stream_seed=4,
    real_eval_time=0.0,
    real_eval_jitter=0.0,
    **engine_kwargs,
):
    """Fresh (udf, engine, distributions) triple with deterministic seeds."""
    udf = reference_function(
        "F4", real_eval_time=real_eval_time, real_eval_jitter=real_eval_jitter
    )
    kwargs = dict(engine_kwargs)
    kwargs.setdefault("n_samples", 150)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=seed, **kwargs
    )
    dists = list(
        input_stream(
            workload_for_udf(udf), n_tuples, random_state=np.random.default_rng(stream_seed)
        )
    )
    return udf, engine, dists


def _assert_identical_outputs(a_outputs, b_outputs):
    assert len(a_outputs) == len(b_outputs)
    for i, (a, b) in enumerate(zip(a_outputs, b_outputs)):
        assert a.dropped == b.dropped, i
        if a.distribution is not None:
            assert np.array_equal(a.distribution.samples, b.distribution.samples), i
            assert a.error_bound == b.error_bound, i


def _gp_state(engine, udf):
    emulator = _emulator_of(engine, udf)
    gp = emulator.gp
    return gp.X_train, gp.y_train, np.asarray(gp.kernel.theta)


# ---------------------------------------------------------------------------
# Chunk schedule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "window,expected",
    [
        (1, [(0, 1)]),
        (2, [(0, 1), (1, 2)]),
        (3, [(0, 1), (1, 2), (2, 3)]),
        (5, [(0, 1), (1, 2), (2, 4), (4, 5)]),
        (8, [(0, 1), (1, 2), (2, 4), (4, 8)]),
    ],
)
def test_chunk_schedule_is_deterministic_and_covers_the_window(window, expected):
    chunks = list(chunk_schedule(window))
    assert chunks == expected
    # Exact cover, in order, no overlap.
    flat = [i for start, stop in chunks for i in range(start, stop)]
    assert flat == list(range(window))


# ---------------------------------------------------------------------------
# inflight=1: identity with the serial batched path
# ---------------------------------------------------------------------------

def test_inflight_1_is_bit_identical_to_serial_batched():
    udf_a, engine_a, dists_a = _fixture()
    serial = ExecutionPlan(batch_size=4).resolve(engine_a).compute_batch(udf_a, dists_a)
    udf_b, engine_b, dists_b = _fixture()
    overlapped = ExecutionPlan(async_inflight=1, batch_size=4).resolve(engine_b).compute_batch(
        udf_b, dists_b
    )
    _assert_identical_outputs(serial, overlapped)
    assert udf_a.call_count == udf_b.call_count
    a_X, a_y, a_theta = _gp_state(engine_a, udf_a)
    b_X, b_y, b_theta = _gp_state(engine_b, udf_b)
    assert np.array_equal(a_X, b_X)
    assert np.array_equal(a_y, b_y)
    assert np.array_equal(a_theta, b_theta)


def test_inflight_1_predicate_path_matches_serial():
    udf_a, engine_a, dists_a = _fixture(stream_seed=9)
    serial = ExecutionPlan(batch_size=3).resolve(engine_a).compute_batch_with_predicate(
        udf_a, dists_a, PREDICATE
    )
    udf_b, engine_b, dists_b = _fixture(stream_seed=9)
    overlapped = ExecutionPlan(
        async_inflight=1, batch_size=3
    ).resolve(engine_b).compute_batch_with_predicate(udf_b, dists_b, PREDICATE)
    _assert_identical_outputs(serial, overlapped)


def test_mc_strategy_delegates_to_the_batched_path():
    def run(inflight):
        udf = reference_function("F4")
        engine = UDFExecutionEngine(strategy="mc", requirement=REQUIREMENT, random_state=3)
        dists = list(
            input_stream(workload_for_udf(udf), 4, random_state=np.random.default_rng(5))
        )
        if inflight is None:
            return ExecutionPlan(batch_size=4).resolve(engine).compute_batch(udf, dists)
        executor = ExecutionPlan(async_inflight=inflight, batch_size=4).resolve(engine)
        return executor.compute_batch(udf, dists)

    _assert_identical_outputs(run(None), run(8))


# ---------------------------------------------------------------------------
# inflight > 1: determinism under completion-order permutations
# ---------------------------------------------------------------------------

def test_out_of_order_completions_yield_identical_state_and_output():
    """Different per-point latency schedules permute the completion order of
    the in-flight window; GP state and query output must not move."""
    runs = {}
    for jitter in (0.0, 0.5, 0.95):
        udf, engine, dists = _fixture(
            real_eval_time=2e-3, real_eval_jitter=jitter, n_tuples=4
        )
        outputs = ExecutionPlan(async_inflight=4, batch_size=4).resolve(engine).compute_batch(
            udf, dists
        )
        runs[jitter] = (outputs, _gp_state(engine, udf), udf.call_count)
    reference_outputs, reference_state, reference_calls = runs[0.0]
    for jitter in (0.5, 0.95):
        outputs, state, calls = runs[jitter]
        _assert_identical_outputs(reference_outputs, outputs)
        assert calls == reference_calls, jitter
        for ref_arr, arr in zip(reference_state, state):
            assert np.array_equal(ref_arr, arr), jitter


def test_async_run_is_repeatable_under_a_fixed_seed():
    def run():
        udf, engine, dists = _fixture(real_eval_time=1e-3)
        outputs = ExecutionPlan(async_inflight=4, batch_size=4).resolve(engine).compute_batch(
            udf, dists
        )
        return outputs, udf.call_count

    a_outputs, a_calls = run()
    b_outputs, b_calls = run()
    _assert_identical_outputs(a_outputs, b_outputs)
    assert a_calls == b_calls


def test_async_calls_genuinely_overlap():
    udf, engine, dists = _fixture(real_eval_time=1e-3, n_tuples=4)
    ExecutionPlan(async_inflight=4, batch_size=4).resolve(engine).compute_batch(udf, dists)
    assert udf.max_in_flight > 1
    assert udf.in_flight == 0


# ---------------------------------------------------------------------------
# UDF thread safety and concurrent evaluation helpers
# ---------------------------------------------------------------------------

def test_concurrent_charging_is_exact():
    udf = reference_function("F4")
    points = np.random.default_rng(0).uniform(1.0, 9.0, size=(64, 2))
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = udf.submit_rows(pool, points)
        values = np.array([future.result() for future in futures])
    assert udf.call_count == 64
    assert udf.in_flight == 0
    assert np.all(np.isfinite(values))


def test_a_window_carries_the_initial_design_without_changing_the_model():
    """With no stage, a window > 1 submits a cold chunk's initial design
    through its driver at once — the design's calls overlap — and the model
    and outputs are bitwise those of the design evaluated inline."""
    plan = ExecutionPlan(async_inflight=4, batch_size=3)
    udf_a, engine_a, dists_a = _fixture(real_eval_time=2e-3)
    olgapro = engine_a.olgapro_for(udf_a)
    real_init = olgapro._ensure_initialized
    design_in_flight = []

    def init(distribution, rng):
        real_init(distribution, rng)
        design_in_flight.append(udf_a.max_in_flight)

    olgapro._ensure_initialized = init
    carried = plan.resolve(engine_a).compute_batch(udf_a, dists_a)
    assert design_in_flight[0] >= 2

    udf_b, engine_b, dists_b = _fixture(real_eval_time=2e-3)
    inline = engine_b.olgapro_for(udf_b)
    inline._ensure_initialized(dists_b[0], inline._rng)  # no driver: inline design
    assert udf_b.max_in_flight == 0 and inline.n_training > 0
    reference = plan.resolve(engine_b).compute_batch(udf_b, dists_b)
    _assert_identical_outputs(reference, carried)
    for a, b in zip(_gp_state(engine_a, udf_a), _gp_state(engine_b, udf_b)):
        assert np.array_equal(a, b)
    assert udf_a.call_count == udf_b.call_count


def _driven_design(udf, width, n_points=16):
    """An emulator of ``udf`` whose initial design rides a thread transport
    of ``width`` workers through a window-``width`` driver."""
    emulator = GPEmulator(udf)
    transport = ThreadPoolTransport()
    with transport.session(width, label="design"):
        emulator.train_initial(
            n_points, random_state=1, driver=AsyncEvaluationDriver(transport, width)
        )
    return emulator


def test_a_driven_design_matches_evaluate_batch():
    """The design's rows through a driver observe exactly the values — and
    train exactly the model — of the inline ``evaluate_batch`` design."""
    inline = GPEmulator(reference_function("F4"))
    inline.train_initial(16, random_state=1)
    udf = reference_function("F4", real_eval_time=2e-3)
    driven = _driven_design(udf, width=4)
    assert np.array_equal(driven.gp.X_train, inline.gp.X_train)
    assert np.array_equal(driven.gp.y_train, inline.gp.y_train)
    assert np.array_equal(driven.gp.kernel.theta, inline.gp.kernel.theta)
    assert udf.call_count == inline.udf.call_count == 16
    assert udf.max_in_flight > 1


def test_a_window_of_one_evaluates_the_design_inline():
    """No driver at window 1 without a stage: the cold chunk's design never
    goes through the submission path."""
    udf, engine, dists = _fixture(n_tuples=2)
    ExecutionPlan(async_inflight=1, batch_size=2).resolve(engine).compute_batch(udf, dists)
    assert engine.olgapro_for(udf).n_training > 0
    assert udf.max_in_flight == 0


@pytest.mark.parametrize("width", [1, 2])
def test_the_transport_width_bounds_the_driven_design(width):
    """Every design row is submitted at once; the transport's width, not
    the row count, bounds how many black-box calls run together."""
    lock = threading.Lock()
    running, peak = [0], [0]

    def slow_sum(x):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(2e-3)
        with lock:
            running[0] -= 1
        return float(np.sum(x))

    domain = (np.zeros(2), np.ones(2))
    udf = UDF(slow_sum, dimension=2, name="slow_sum", domain=domain)
    driven = _driven_design(udf, width, n_points=12)
    assert udf.call_count == 12
    assert peak[0] == width
    serial = GPEmulator(UDF(lambda x: float(np.sum(x)), dimension=2, domain=domain))
    serial.train_initial(12, random_state=1)
    assert np.array_equal(driven.gp.y_train, serial.gp.y_train)


# ---------------------------------------------------------------------------
# Snapshot fencing
# ---------------------------------------------------------------------------

def test_absorb_with_stale_fence_raises():
    udf, engine, dists = _fixture(n_tuples=1)
    ExecutionPlan(batch_size=1).resolve(engine).compute_batch(udf, dists)
    emulator = _emulator_of(engine, udf)
    fence = emulator.snapshot()
    x = np.array([[5.0, 5.0]])
    y = np.array([float(udf(x[0]))])
    # Mutate the model between the snapshot and the absorb.
    emulator.add_training_point(np.array([2.5, 7.5]))
    with pytest.raises(GPError, match="stale snapshot fence"):
        emulator.absorb_observations(x, y, fence=fence)


def test_absorb_with_current_fence_succeeds():
    udf, engine, dists = _fixture(n_tuples=1)
    ExecutionPlan(batch_size=1).resolve(engine).compute_batch(udf, dists)
    emulator = _emulator_of(engine, udf)
    fence = emulator.snapshot()
    x = np.array([[5.0, 5.0]])
    y = np.array([float(udf(x[0]))])
    # The UDF call does not touch the GP, so the fence is still current —
    # note udf() happened after snapshot() above, exactly like in-flight
    # evaluations completing while the snapshot is live.
    n_before = emulator.n_training
    emulator.absorb_observations(x, y, fence=fence)
    assert emulator.n_training == n_before + 1


def test_restore_moves_the_version_forward():
    udf, engine, dists = _fixture(n_tuples=1)
    ExecutionPlan(batch_size=1).resolve(engine).compute_batch(udf, dists)
    emulator = _emulator_of(engine, udf)
    fence = emulator.snapshot()
    version_at_snapshot = emulator.gp.version
    emulator.restore(fence)
    assert emulator.gp.version > version_at_snapshot


# ---------------------------------------------------------------------------
# Knob plumbing: query builder, operators, parallel shards
# ---------------------------------------------------------------------------

def _query_run(async_inflight, workers=None, n_rows=6):
    relation = generate_galaxy_relation(n_rows, random_state=21)
    udf = reference_function("F1", real_eval_time=5e-4)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=13, n_samples=150
    )
    return (
        Query(relation)
        .apply_udf(udf, ["ra_offset", "dec_offset"], alias="f",
                   plan=ExecutionPlan(batch_size=3, workers=workers, parallel_seed=17,
                                      async_inflight=async_inflight))
        .run(engine)
    )


def test_query_async_inflight_1_matches_batched():
    plain = _query_run(None)
    overlapped = _query_run(1)
    assert len(plain) == len(overlapped)
    for a, b in zip(plain, overlapped):
        assert np.array_equal(a["f"].samples, b["f"].samples)


def test_query_async_inflight_is_deterministic():
    a = _query_run(4)
    b = _query_run(4)
    assert len(a) == len(b)
    for row_a, row_b in zip(a, b):
        assert np.array_equal(row_a["f"].samples, row_b["f"].samples)


def test_parallel_shards_honor_async_inflight():
    def sharded(workers):
        udf, engine, dists = _fixture(real_eval_time=1e-3, n_tuples=8)
        executor = ExecutionPlan(
            workers=workers, batch_size=4, merge="discard", parallel_seed=99, async_inflight=4
        ).resolve(engine)
        return executor.compute_batch(udf, dists)

    # Worker-count invariance survives the async per-shard trajectory.
    _assert_identical_outputs(sharded(2), sharded(3))


def test_parallel_workers_1_with_async_matches_async_executor():
    udf_a, engine_a, dists_a = _fixture(real_eval_time=1e-3)
    direct = ExecutionPlan(async_inflight=4, batch_size=4).resolve(engine_a).compute_batch(
        udf_a, dists_a
    )
    udf_b, engine_b, dists_b = _fixture(real_eval_time=1e-3)
    serial_path = ExecutionPlan(
        workers=1, batch_size=4, async_inflight=4
    ).resolve(engine_b).compute_batch(udf_b, dists_b)
    _assert_identical_outputs(direct, serial_path)


def test_default_worker_count_is_the_core_count():
    import os

    cores = default_worker_count()
    assert cores == max(1, os.cpu_count() or 1)
    with pytest.raises(TypeError):
        default_worker_count(2.0)  # no scale: each worker already runs several shards at once
    _, engine, _ = _fixture(n_tuples=1)
    assert ExecutionPlan(workers=cores).resolve(engine).workers == cores
