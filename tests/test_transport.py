"""The two carriers and the AsyncUDF: values, gauges, identity, shutdown.

Contracts under test (see :mod:`repro.engine.transport` and
:class:`repro.udf.base.AsyncUDF`):

* both carriers — the thread pool and the event loop — return one future
  per row, in row order, resolving to the same values the blocking path
  computes, with exact charge accounting and a zeroed in-flight gauge
  afterwards; a failing call is delivered through its future; a closed
  carrier reopens fresh, and below the carriers ``UDF.submit_rows`` takes
  any ``concurrent.futures`` executor;
* the carrier never changes what a query computes: the same windowed
  plan on ``"threads"`` and on ``"asyncio"`` yields bitwise-equal
  distributions, bounds and call counts, and a window of one opens no
  carrier at all;
* the asyncio carrier genuinely overlaps awaited latencies, requires an
  ``AsyncUDF`` (typed error otherwise), and ``async_inflight=1`` over it
  is bit-identical to the serial batched path;
* **shutdown**: no pool thread or event-loop thread survives a
  computation — including one that fails with a ``UDFError``/
  ``QueryError`` — and every carrier-started thread is non-daemon and
  joined, and a drain past its deadline raises the typed
  ``TransportDrainTimeoutError`` on either carrier;
* an ``AsyncUDF`` pickles and evaluates in the copy.
"""

from __future__ import annotations

import asyncio
import gc
import pickle
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.core.emulator import GPEmulator
from repro.engine import (
    TRANSPORTS,
    AsyncioTransport,
    ExecutionPlan,
    ThreadPoolTransport,
)
from repro.engine.async_exec import AsyncEvaluationDriver
from repro.engine.executor import UDFExecutionEngine
from repro.exceptions import QueryError, TransportDrainTimeoutError, UDFError
from repro.udf.base import AsyncUDF
from repro.udf.synthetic import async_service_udf, reference_function
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)


def _points(n=6, seed=0):
    return np.random.default_rng(seed).uniform(1.0, 9.0, size=(n, 2))


def _engine_fixture(latency=0.0, jitter=0.0, n_tuples=4, seed=31, stream_seed=4):
    udf = async_service_udf("F4", latency=latency, jitter=jitter)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=seed, n_samples=120
    )
    dists = list(
        input_stream(
            workload_for_udf(udf), n_tuples, random_state=np.random.default_rng(stream_seed)
        )
    )
    return udf, engine, dists


def _transport_threads():
    """Names of live threads created by any evaluation transport."""
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("udf-", "udf-asyncio-", "udf-eval-"))
    ]


# ---------------------------------------------------------------------------
# The two carriers
# ---------------------------------------------------------------------------

def test_registry_resolution():
    assert TRANSPORTS == {"threads": ThreadPoolTransport, "asyncio": AsyncioTransport}
    assert all(TRANSPORTS[name].name == name for name in TRANSPORTS)


# ---------------------------------------------------------------------------
# Value and accounting parity across carriers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["threads", "asyncio"])
def test_submit_rows_matches_blocking_evaluation(name):
    udf_ref = async_service_udf("F4")
    points = _points()
    expected = udf_ref.evaluate_batch(points)

    udf = async_service_udf("F4")
    transport = TRANSPORTS[name]()
    with transport.session(4, label="test"):
        futures = transport.submit_rows(udf, points)
        values = np.array([future.result() for future in futures])
    assert np.array_equal(values, expected)
    assert udf.call_count == udf_ref.call_count == points.shape[0]
    assert udf.in_flight == 0
    assert _transport_threads() == []


def test_threads_carrier_carries_a_blocking_udf():
    udf = reference_function("F2")
    points = _points(5, seed=9)
    expected = reference_function("F2").evaluate_batch(points)
    transport = ThreadPoolTransport()
    transport.accepts(udf)  # any UDF may ride the pool
    with transport.session(2, label="blocking"):
        values = np.array([f.result() for f in transport.submit_rows(udf, points)])
    assert np.array_equal(values, expected)
    assert udf.call_count == points.shape[0]
    assert udf.in_flight == 0
    assert _transport_threads() == []


@pytest.mark.parametrize(
    "make_udf",
    [lambda: reference_function("F4"), lambda: async_service_udf("F4")],
    ids=["blocking", "async"],
)
def test_udf_submit_rows_takes_a_plain_executor(make_udf):
    # Below the carriers, a UDF submits to any concurrent.futures Executor:
    # futures in row order, the values of the blocking path, exact charges.
    points = _points(4)
    expected = make_udf().evaluate_batch(points)
    udf = make_udf()
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = udf.submit_rows(pool, points)
        values = np.array([future.result() for future in futures])
    assert np.array_equal(values, expected)
    assert udf.call_count == points.shape[0]
    assert udf.in_flight == 0


@pytest.mark.parametrize("name", ["threads", "asyncio"])
def test_carriers_reopen_fresh_after_close(name):
    udf = async_service_udf("F4")
    points = _points(3, seed=5)
    transport = TRANSPORTS[name]()
    runs = []
    for label in ("first", "second"):
        with transport.session(2, label=label):
            runs.append(np.array([f.result() for f in transport.submit_rows(udf, points)]))
        assert _transport_threads() == []
        with pytest.raises(QueryError, match="not open"):
            transport.submit_rows(udf, points)
    assert np.array_equal(runs[0], runs[1])
    assert udf.call_count == 2 * points.shape[0]


def test_an_initial_design_over_a_transport():
    serial = GPEmulator(async_service_udf("F4"))
    serial.train_initial(8, random_state=3, optimize_hyperparameters=False)
    udf = async_service_udf("F4", latency=1e-3)
    emulator = GPEmulator(udf)
    transport = AsyncioTransport()
    with transport.session(8, label="design"):
        emulator.train_initial(
            8, random_state=3, optimize_hyperparameters=False,
            driver=AsyncEvaluationDriver(transport, 4),
        )
    assert np.array_equal(emulator.gp.X_train, serial.gp.X_train)
    assert np.array_equal(emulator.gp.y_train, serial.gp.y_train)
    assert udf.max_in_flight > 1


@pytest.mark.parametrize("name", ["threads", "asyncio"])
def test_carriers_deliver_failures_through_futures(name):
    async def boom(x):
        raise RuntimeError("service down")

    udf = AsyncUDF(boom, dimension=2, name="boom")
    transport = TRANSPORTS[name]()
    with transport.session(2):
        futures = transport.submit_rows(udf, _points(2))
        transport.drain(futures)  # swallows the failures, settles every call
        assert all(isinstance(f, Future) and f.done() for f in futures)
        with pytest.raises(UDFError, match="service down"):
            futures[0].result()
    assert udf.in_flight == 0


def test_transports_require_open():
    with pytest.raises(QueryError, match="not open"):
        ThreadPoolTransport().submit_rows(async_service_udf("F4"), _points(1))
    with pytest.raises(QueryError, match="not open"):
        AsyncioTransport().submit_rows(async_service_udf("F4"), _points(1))
    transport = ThreadPoolTransport()
    with transport.session(2):
        with pytest.raises(QueryError, match="already open"):
            transport.open(2)
    transport.close()  # idempotent


def test_asyncio_transport_rejects_blocking_udfs():
    blocking = reference_function("F4")
    with pytest.raises(QueryError, match="AsyncUDF"):
        AsyncioTransport().accepts(blocking)
    # ... and the executor surfaces it before any work happens.
    _, engine, dists = _engine_fixture()
    executor = ExecutionPlan(async_inflight=4, batch_size=4, transport="asyncio").resolve(engine)
    with pytest.raises(QueryError, match="AsyncUDF"):
        executor.compute_batch(blocking, dists)
    # ... including on the degenerate paths that never open the transport:
    # a misconfiguration must not surface only once the window is raised.
    degenerate = ExecutionPlan(async_inflight=1, batch_size=4, transport="asyncio").resolve(engine)
    with pytest.raises(QueryError, match="AsyncUDF"):
        degenerate.compute_batch(blocking, dists)
    pipelined = ExecutionPlan(pipeline_lookahead=1, batch_size=4, transport="asyncio").resolve(engine)
    with pytest.raises(QueryError, match="AsyncUDF"):
        pipelined.compute_batch(blocking, dists)
    assert _transport_threads() == []


# ---------------------------------------------------------------------------
# AsyncUDF semantics
# ---------------------------------------------------------------------------

def test_async_udf_blocking_call_validates_and_charges():
    udf = async_service_udf("F4")
    value = udf(np.array([5.0, 5.0]))
    assert np.isfinite(value)
    assert udf.call_count == 1
    with pytest.raises(UDFError, match="shape"):
        udf(np.array([1.0, 2.0, 3.0]))


def test_async_udf_non_finite_value_raises():
    async def nan_service(x):
        return float("nan")

    udf = AsyncUDF(nan_service, dimension=2, name="nan")
    with pytest.raises(UDFError, match="non-finite"):
        udf(np.array([1.0, 2.0]))


def test_async_udf_pickles_and_evaluates_in_the_copy():
    udf = async_service_udf("F4", latency=0.0)
    point = np.array([4.0, 6.0])
    expected = udf(point)
    clone = pickle.loads(pickle.dumps(udf))
    assert clone(point) == expected
    # Counters carried over at pickling time, then advanced by the copy's
    # own evaluation; the original's stay untouched.
    assert clone.call_count == udf.call_count + 1


def test_async_udf_blocking_calls_share_one_loop_per_thread():
    """The bridge opens a loop per thread, not per call, and closes it with the thread."""
    loops = []

    async def service(x):
        loops.append(asyncio.get_running_loop())
        if x[0] < 0:
            raise ValueError("negative")
        return float(x[0])

    udf = AsyncUDF(service, dimension=1, name="loops")

    def calls():
        for value in (1.0, 2.0):
            assert udf(np.array([value])) == value

    calls()
    worker = threading.Thread(target=calls)
    worker.start()
    worker.join()
    assert loops[0] is loops[1] and loops[2] is loops[3] and loops[0] is not loops[2]
    del worker
    gc.collect()
    assert loops[2].is_closed() and not loops[0].is_closed()
    with pytest.raises(UDFError, match="negative"):
        udf(np.array([-1.0]))
    assert udf(np.array([3.0])) == 3.0 and loops[-1] is loops[0]


def test_async_udf_with_simulated_eval_time_stays_async():
    udf = async_service_udf("F4").with_simulated_eval_time(0.5)
    assert isinstance(udf, AsyncUDF)
    udf(np.array([5.0, 5.0]))
    assert udf.charged_time >= 0.5


# ---------------------------------------------------------------------------
# Overlap and bit-identity through the executors
# ---------------------------------------------------------------------------

def test_asyncio_inflight_1_is_bit_identical_to_serial_batched():
    udf_a, engine_a, dists_a = _engine_fixture()
    serial = ExecutionPlan(batch_size=4).resolve(engine_a).compute_batch(udf_a, dists_a)
    udf_b, engine_b, dists_b = _engine_fixture()
    overlapped = ExecutionPlan(
        async_inflight=1, batch_size=4, transport="asyncio"
    ).resolve(engine_b).compute_batch(udf_b, dists_b)
    assert len(serial) == len(overlapped)
    for a, b in zip(serial, overlapped):
        assert np.array_equal(a.distribution.samples, b.distribution.samples)
        assert a.error_bound == b.error_bound
    assert udf_a.call_count == udf_b.call_count


@pytest.mark.parametrize("lookahead", [1, 2])
def test_the_carrier_never_changes_the_result(lookahead):
    """The same windowed plan on either carrier: bitwise-equal outputs and
    equal call counts, however the jittered latencies complete."""
    def run(transport):
        udf, engine, dists = _engine_fixture(latency=2e-3, jitter=0.5, n_tuples=6)
        plan = ExecutionPlan(
            batch_size=6, async_inflight=4, pipeline_lookahead=lookahead,
            transport=transport,
        )
        return engine.compute_with_plan(udf, dists, plan), udf.call_count

    threads, threads_calls = run("threads")
    asyncio_outputs, asyncio_calls = run("asyncio")
    assert len(threads) == len(asyncio_outputs) == 6
    for a, b in zip(threads, asyncio_outputs):
        assert np.array_equal(a.distribution.samples, b.distribution.samples)
        assert a.error_bound == b.error_bound
    assert threads_calls == asyncio_calls


@pytest.mark.parametrize("name", ["threads", "asyncio"])
def test_a_window_of_one_opens_no_carrier(name, monkeypatch):
    """Window 1 and lookahead 1 evaluate inline: every UDF call runs and
    no carrier opens; a window of two opens exactly one session."""
    carrier = TRANSPORTS[name]
    opens = []
    real_open = carrier.open

    def counting_open(self, *args, **kwargs):
        opens.append(self)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(carrier, "open", counting_open)
    for knobs in ({"async_inflight": 1}, {"pipeline_lookahead": 1}):
        udf, engine, dists = _engine_fixture(n_tuples=3)
        plan = ExecutionPlan(batch_size=3, transport=name, **knobs)
        engine.compute_with_plan(udf, dists, plan)
        assert udf.call_count > 0
    assert opens == []
    udf, engine, dists = _engine_fixture(n_tuples=1)
    engine.compute_with_plan(
        udf, dists, ExecutionPlan(batch_size=1, async_inflight=2, transport=name)
    )
    assert len(opens) == 1


def test_asyncio_transport_genuinely_overlaps():
    udf, engine, dists = _engine_fixture(latency=2e-3)
    ExecutionPlan(
        async_inflight=4, batch_size=4, transport="asyncio"
    ).resolve(engine).compute_batch(udf, dists)
    assert udf.max_in_flight > 1
    assert udf.in_flight == 0
    assert _transport_threads() == []


def test_asyncio_run_is_repeatable_and_jitter_invariant():
    def run(jitter):
        udf, engine, dists = _engine_fixture(latency=2e-3, jitter=jitter)
        outputs = ExecutionPlan(
            async_inflight=4, batch_size=4, transport="asyncio"
        ).resolve(engine).compute_batch(udf, dists)
        return outputs, udf.call_count

    reference, reference_calls = run(0.0)
    for jitter in (0.5, 0.95):
        outputs, calls = run(jitter)
        assert calls == reference_calls
        for a, b in zip(reference, outputs):
            assert np.array_equal(a.distribution.samples, b.distribution.samples)
            assert a.error_bound == b.error_bound


def test_pipelined_executor_rides_the_asyncio_transport():
    udf, engine, dists = _engine_fixture(latency=1e-3, n_tuples=6)
    executor = ExecutionPlan(
        pipeline_lookahead=2, async_inflight=2, batch_size=6, transport="asyncio"
    ).resolve(engine)
    outputs = executor.compute_batch(udf, dists)
    assert len(outputs) == 6
    assert udf.in_flight == 0
    assert _transport_threads() == []


# ---------------------------------------------------------------------------
# Shutdown: the no-leaked-threads regression contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("transport", ["threads", "asyncio"])
def test_failed_query_leaks_no_threads(transport):
    """A UDF that starts failing mid-query must not leave pool or
    event-loop threads behind: the transport session closes (joining all
    non-daemon threads) on the error path."""
    state = {"calls": 0}

    async def flaky(x):
        state["calls"] += 1
        if state["calls"] > 30:
            raise RuntimeError("service went away")
        return float(np.sum(x))

    udf = AsyncUDF(flaky, dimension=2, name="flaky")
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=3, n_samples=120
    )
    dists = list(
        input_stream(workload_for_udf(udf), 4, random_state=np.random.default_rng(2))
    )
    executor = ExecutionPlan(async_inflight=4, batch_size=4, transport=transport).resolve(engine)
    with pytest.raises(UDFError):
        executor.compute_batch(udf, dists)
    leaked = _transport_threads()
    assert leaked == [], leaked
    # Every thread in the process is either the main thread or daemonic
    # housekeeping — nothing the transports started survives.
    assert all(
        thread is threading.main_thread() or thread.daemon or
        not thread.name.startswith("udf")
        for thread in threading.enumerate()
    )
    assert udf.in_flight == 0


def test_asyncio_drain_deadline_is_typed_and_the_loop_is_joined():
    transport = AsyncioTransport()
    transport.open(2, label="drain-deadline")
    try:
        real = transport.submit_rows(async_service_udf("F4"), _points(1))
        stuck: Future = Future()  # an evaluation that never settles
        with pytest.raises(TransportDrainTimeoutError, match="asyncio"):
            transport.drain(real + [stuck], timeout=0.2)
        assert real[0].done()  # the settled call was waited out first
    finally:
        transport.close()
    assert _transport_threads() == []


def test_transport_close_is_idempotent_and_joins_the_loop_thread():
    transport = AsyncioTransport()
    transport.open(2, label="join-check")
    names_open = _transport_threads()
    assert any("join-check" in name for name in names_open)
    transport.close()
    transport.close()
    assert _transport_threads() == []
