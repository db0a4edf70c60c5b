"""Fault tolerance: deterministic retries, quarantine, shard recovery, breaker.

Contracts under test (see :mod:`repro.udf.retry`, :mod:`repro.udf.faults`,
:mod:`repro.engine.parallel`,
:mod:`repro.engine.service`):

* a :class:`~repro.udf.faults.FaultSchedule` is **replayable**: failures
  are a pure function of ``(seed, point, attempt)`` — no wall clock, no
  shared RNG — and survive pickling into pool workers;
* a run that recovers from injected transient faults via retries is
  **bit-identical** to the fault-free run with the same seed, on the
  serial path and on both carriers (thread pool, asyncio), with matching
  UDF charge counters (failed attempts charge nothing); on either
  carrier a retried fault is absorbed inside its future, and exhausted
  retries fail that future with the typed transient error;
* tuples whose evaluations stay failing after the policy is exhausted are
  **quarantined** as ``degraded`` verdicts (carrying the last bound the
  online algorithm had) instead of aborting the query — and fatal faults
  are never retried;
* a dead pool worker's shard is **re-executed** (same ``spawn_keyed``
  stream ⇒ identical results) up to ``retry.shard_attempts``; exhaustion
  raises :class:`~repro.exceptions.ShardFailureError` whose message alone
  reproduces the shard;
* a transport drain that exceeds its deadline raises the typed
  :class:`~repro.exceptions.TransportDrainTimeoutError` (never the raw
  ``concurrent.futures.TimeoutError``) and still tears the pool down;
* the serving circuit breaker trips after consecutive same-UDF failures,
  fast-fails with :class:`~repro.exceptions.CircuitOpenError`, admits a
  single half-open probe after the cooldown, and ``close(drain=True)``
  finishes in-flight queries;
* every injected-failure exit path leaks no threads or transports.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.distributions.continuous import Gaussian
from repro.distributions.multivariate import IndependentJoint
from repro.engine import (
    TRANSPORTS,
    VERDICT_DEGRADED,
    ExecutionPlan,
    ParallelExecutor,
    Query,
    QueryService,
    ThreadPoolTransport,
    UDFExecutionEngine,
    generate_galaxy_relation,
    parallel,
)
from repro.exceptions import (
    CircuitOpenError,
    FatalUDFError,
    PlanError,
    QueryCancelledError,
    QueryError,
    ReproError,
    ShardFailureError,
    TransientUDFError,
    TransportDrainTimeoutError,
    UDFError,
)
from repro.udf.base import UDF
from repro.udf.faults import (
    FaultInjectingAsyncUDF,
    FaultInjectingUDF,
    FaultSchedule,
    point_key,
)
from repro.udf.retry import RetryPolicy
from repro.udf.synthetic import async_service_udf, reference_function
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)
RELATION = generate_galaxy_relation(4, random_state=11)

#: Threads that must not survive any computation or service shutdown.
THREAD_PREFIXES = ("udf-", "repro-")


def _leaked_threads() -> list[str]:
    """Names of surviving transport/service threads (should be empty)."""
    return [
        t.name for t in threading.enumerate() if t.name.startswith(THREAD_PREFIXES)
    ]


def _engine(seed: int = 7, n_samples: int = 120) -> UDFExecutionEngine:
    return UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=seed, n_samples=n_samples
    )


def _dists(udf: UDF, n_tuples: int = 3, stream_seed: int = 4):
    return list(
        input_stream(
            workload_for_udf(udf), n_tuples,
            random_state=np.random.default_rng(stream_seed),
        )
    )


def _assert_outputs_identical(a_outputs, b_outputs) -> None:
    """Samples and bounds must match bit for bit (not merely approximately)."""
    assert len(a_outputs) == len(b_outputs)
    for i, (a, b) in enumerate(zip(a_outputs, b_outputs)):
        assert np.array_equal(a.distribution.samples, b.distribution.samples), i
        assert a.error_bound == b.error_bound, i


# ---------------------------------------------------------------------------
# FaultSchedule: replayability, caps, pickling
# ---------------------------------------------------------------------------

def _keys(n: int = 40):
    return [point_key(np.array([float(i), float(2 * i)])) for i in range(n)]


def test_schedule_is_replayable():
    a = FaultSchedule(0.4, seed=5)
    b = FaultSchedule(0.4, seed=5)
    for key in _keys():
        for _attempt in range(3):
            assert a.should_fail(key) == b.should_fail(key)
    assert a.injected_failures == b.injected_failures > 0
    assert a.attempts_seen == b.attempts_seen == 120


def test_schedule_seed_changes_the_failures():
    a = FaultSchedule(0.4, seed=5)
    b = FaultSchedule(0.4, seed=6)
    draws_a = [a.should_fail(key) for key in _keys()]
    draws_b = [b.should_fail(key) for key in _keys()]
    assert draws_a != draws_b


def test_schedule_validates_rate_and_cap():
    with pytest.raises(UDFError, match=r"\[0, 1\]"):
        FaultSchedule(1.5)
    with pytest.raises(UDFError, match=r"\[0, 1\]"):
        FaultSchedule(-0.1)
    with pytest.raises(UDFError, match="non-negative"):
        FaultSchedule(0.5, max_failures_per_point=-1)


def test_schedule_caps_failures_per_point():
    schedule = FaultSchedule(1.0, seed=0, max_failures_per_point=2)
    key = point_key(np.array([1.0, 2.0]))
    assert [schedule.should_fail(key) for _ in range(5)] == [
        True, True, False, False, False,
    ]
    assert schedule.injected_failures == 2


def test_schedule_pickle_resumes_where_the_original_would():
    original = FaultSchedule(0.5, seed=9)
    key = point_key(np.array([7.0, 8.0]))
    original.should_fail(key)
    copy = pickle.loads(pickle.dumps(original))
    # Same per-point attempt counters => identical continuation.
    for _ in range(4):
        assert copy.should_fail(key) == original.should_fail(key)


# ---------------------------------------------------------------------------
# RetryPolicy: validation and deterministic backoff
# ---------------------------------------------------------------------------

def test_retry_policy_validates_fields():
    with pytest.raises(UDFError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(UDFError, match="backoff_base"):
        RetryPolicy(backoff_base=-0.1)
    with pytest.raises(UDFError, match="backoff_cap"):
        RetryPolicy(backoff_cap=-1.0)
    with pytest.raises(UDFError, match="retry_budget"):
        RetryPolicy(retry_budget=-1)
    with pytest.raises(UDFError, match="shard_attempts"):
        RetryPolicy(shard_attempts=0)


def test_retry_policy_backoff_is_capped_doubling():
    policy = RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_cap=0.25)
    assert [policy.delay_for(n) for n in (1, 2, 3, 4)] == [0.1, 0.2, 0.25, 0.25]
    assert RetryPolicy().delay_for(1) == 0.0  # backoff_base=0 retries immediately
    with pytest.raises(UDFError, match="failure_count"):
        policy.delay_for(0)


# ---------------------------------------------------------------------------
# UDF retry loop: recovery, budget, fatal faults, pickling
# ---------------------------------------------------------------------------

def test_transient_faults_recover_bit_identically():
    inner = reference_function("F1")
    schedule = FaultSchedule(0.5, seed=3, max_failures_per_point=2)
    faulty = FaultInjectingUDF(inner, schedule)
    faulty._install_retry_policy(RetryPolicy(max_attempts=3))
    points = np.random.default_rng(0).uniform(1.0, 9.0, size=(25, 2))
    clean = reference_function("F1")
    for x in points:
        assert faulty(x) == clean(x)
    assert schedule.injected_failures > 0
    # Failed attempts charge nothing: both UDFs report one call per point.
    assert faulty.call_count == clean.call_count == len(points)


def test_transient_fault_without_policy_propagates():
    schedule = FaultSchedule(1.0, seed=0)
    faulty = FaultInjectingUDF(reference_function("F1"), schedule)
    with pytest.raises(TransientUDFError, match="injected transient fault"):
        faulty(np.array([1.0, 2.0]))


def test_retry_budget_exhaustion_turns_transient_terminal():
    schedule = FaultSchedule(1.0, seed=0, max_failures_per_point=1)
    faulty = FaultInjectingUDF(reference_function("F1"), schedule)
    faulty._install_retry_policy(RetryPolicy(max_attempts=3, retry_budget=0))
    with pytest.raises(TransientUDFError):
        faulty(np.array([1.0, 2.0]))


def test_fatal_fault_is_never_retried():
    schedule = FaultSchedule(1.0, seed=0)
    faulty = FaultInjectingUDF(reference_function("F1"), schedule, fatal=True)
    faulty._install_retry_policy(RetryPolicy(max_attempts=5))
    with pytest.raises(FatalUDFError, match="injected fatal fault"):
        faulty(np.array([1.0, 2.0]))
    assert schedule.attempts_seen == 1  # no retry draw happened
    assert faulty.call_count == 0


def test_vectorized_batch_retries_recover_bit_identically():
    inner = reference_function("F1")  # vectorised
    assert inner.vectorized
    schedule = FaultSchedule(0.9, seed=1, max_failures_per_point=2)
    faulty = FaultInjectingUDF(inner, schedule)
    faulty._install_retry_policy(RetryPolicy(max_attempts=3))
    X = np.random.default_rng(1).uniform(1.0, 9.0, size=(8, 2))
    clean = reference_function("F1")
    assert np.array_equal(faulty.evaluate_batch(X), clean.evaluate_batch(X))
    assert faulty.call_count == clean.call_count == X.shape[0]
    assert schedule.injected_failures > 0


def test_pickled_udf_keeps_policy_and_zeroes_used_retries():
    schedule = FaultSchedule(0.5, seed=3, max_failures_per_point=2)
    faulty = FaultInjectingUDF(reference_function("F1"), schedule)
    faulty._install_retry_policy(RetryPolicy(max_attempts=3))
    points = np.random.default_rng(0).uniform(1.0, 9.0, size=(25, 2))
    for x in points:
        faulty(x)
    assert faulty.retries_used > 0
    copy = pickle.loads(pickle.dumps(faulty))
    assert copy._retry_policy == faulty._retry_policy
    assert copy.retries_used == 0  # fresh budget window in the worker


# ---------------------------------------------------------------------------
# Plan plumbing
# ---------------------------------------------------------------------------

def test_plan_rejects_non_policy_retry():
    with pytest.raises(PlanError, match="RetryPolicy"):
        ExecutionPlan(retry="three times please")


def test_plan_with_retry_and_workers_resolves_to_parallel_executor():
    plan = ExecutionPlan(workers=2, retry=RetryPolicy(shard_attempts=3))
    executor = plan.resolve(_engine())
    assert isinstance(executor, ParallelExecutor)
    assert executor.plan.retry == plan.retry


# ---------------------------------------------------------------------------
# The headline contract: bit-identity under injected faults, per transport
# ---------------------------------------------------------------------------

def _identity_run(mode: str, inject: bool):
    """One small GP run of ``mode``; returns (outputs, call_count, schedule)."""
    policy = RetryPolicy(max_attempts=3)
    schedule = (
        FaultSchedule(0.3, seed=1234, max_failures_per_point=2) if inject else None
    )
    if mode == "asyncio":
        inner = async_service_udf("F4", latency=2e-3, random_state=7)
        udf = FaultInjectingAsyncUDF(inner, schedule) if inject else inner
        plan = ExecutionPlan(
            batch_size=3, async_inflight=2, transport="asyncio", retry=policy
        )
    else:
        inner = reference_function("F4")
        udf = FaultInjectingUDF(inner, schedule) if inject else inner
        if mode == "threads":
            plan = ExecutionPlan(
                batch_size=3, async_inflight=2, transport="threads", retry=policy
            )
        else:
            plan = ExecutionPlan(batch_size=3, retry=policy)
    result = _engine(n_samples=100).compute_with_plan(udf, _dists(udf), plan=plan)
    return list(result.outputs), udf.call_count, schedule


@pytest.mark.parametrize("mode", ["serial", "threads", "asyncio"])
def test_injected_faults_with_retries_are_bit_identical(mode):
    clean_outputs, clean_calls, _ = _identity_run(mode, inject=False)
    faulty_outputs, faulty_calls, schedule = _identity_run(mode, inject=True)
    assert schedule.injected_failures > 0  # the gate must not be vacuous
    _assert_outputs_identical(clean_outputs, faulty_outputs)
    assert clean_calls == faulty_calls
    assert _leaked_threads() == []


# ---------------------------------------------------------------------------
# Retries at the carrier seam: absorption and exhaustion per future
# ---------------------------------------------------------------------------

def _faulty_for(carrier: str, schedule: FaultSchedule) -> UDF:
    if carrier == "asyncio":
        return FaultInjectingAsyncUDF(async_service_udf("F4", random_state=7), schedule)
    return FaultInjectingUDF(reference_function("F4"), schedule)


@pytest.mark.parametrize("carrier", ["threads", "asyncio"])
def test_carrier_futures_absorb_retried_faults(carrier):
    points = np.random.default_rng(3).uniform(1.0, 9.0, size=(6, 2))
    expected = _faulty_for(carrier, FaultSchedule(0.0, seed=0)).evaluate_batch(points)
    schedule = FaultSchedule(0.5, seed=77, max_failures_per_point=2)
    udf = _faulty_for(carrier, schedule)
    udf._install_retry_policy(RetryPolicy(max_attempts=3))
    transport = TRANSPORTS[carrier]()
    with transport.session(2, label="absorb"):
        values = np.array([f.result() for f in transport.submit_rows(udf, points)])
    assert schedule.injected_failures > 0  # the gate must not be vacuous
    assert np.array_equal(values, expected)
    assert udf.call_count == points.shape[0]  # failed attempts charge nothing
    assert _leaked_threads() == []


@pytest.mark.parametrize("carrier", ["threads", "asyncio"])
def test_carrier_future_fails_typed_when_retries_are_exhausted(carrier):
    schedule = FaultSchedule(1.0, seed=0)  # uncapped: every attempt fails
    udf = _faulty_for(carrier, schedule)
    udf._install_retry_policy(RetryPolicy(max_attempts=2))
    transport = TRANSPORTS[carrier]()
    with transport.session(2, label="exhaust"):
        (future,) = transport.submit_rows(udf, np.array([[1.0, 2.0]]))
        with pytest.raises(TransientUDFError, match="injected transient fault"):
            future.result()
    assert schedule.attempts_seen == 2
    assert udf.call_count == 0
    assert udf.in_flight == 0
    assert _leaked_threads() == []


# ---------------------------------------------------------------------------
# Quarantine: degraded verdicts instead of aborted queries
# ---------------------------------------------------------------------------

def _always_transient(x):
    raise TransientUDFError("service is down")


class _FailAfter:
    """Succeed for the first ``n`` calls of this process, then fail forever.

    Lets the GP train its initial model, then simulates a total outage in
    the refinement phase — exercising OLGAPRO's in-loop quarantine, which
    keeps the last bound it computed rather than NaN.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls > self.n:
            raise TransientUDFError("service went down mid-refinement")
        return float(np.sin(x[0]) + np.cos(x[1]))


def _failing_udf(func=_always_transient) -> UDF:
    return UDF(func, dimension=2, name="flaky",
               domain=(np.zeros(2), np.full(2, 10.0)))


#: Quarantine belongs to the one tuple-commit loop, so it must hold at every
#: (window, lookahead) a plan can run that loop at — and on the per-tuple path.
QUARANTINE_PLANS = [
    pytest.param({}, id="per-tuple"),
    pytest.param({"batch_size": 3}, id="batched"),
    pytest.param({"batch_size": 3, "async_inflight": 4}, id="window"),
    pytest.param({"batch_size": 3, "pipeline_lookahead": 2}, id="lookahead"),
    pytest.param(
        {"batch_size": 3, "async_inflight": 4, "pipeline_lookahead": 2},
        id="window+lookahead",
    ),
]


@pytest.mark.parametrize("knobs", QUARANTINE_PLANS)
def test_quarantine_surfaces_degraded_verdicts(knobs):
    udf = _failing_udf()
    plan = ExecutionPlan(retry=RetryPolicy(max_attempts=2, quarantine=True), **knobs)
    result = _engine().compute_with_plan(udf, _dists(udf, 6), plan=plan)
    assert len(result.degraded()) == len(result.verdicts) == 6
    for verdict in result.verdicts:
        assert verdict.verdict == VERDICT_DEGRADED
    for output in result.outputs:
        assert output.failed
    assert _leaked_threads() == []


@pytest.mark.parametrize("knobs", QUARANTINE_PLANS)
@pytest.mark.parametrize("healthy_calls", [0, 25], ids=["down", "mid-refinement"])
def test_quarantine_off_aborts_the_query(knobs, healthy_calls):
    udf = _failing_udf(_FailAfter(healthy_calls))
    plan = ExecutionPlan(retry=RetryPolicy(max_attempts=2, quarantine=False), **knobs)
    with pytest.raises(TransientUDFError):
        _engine().compute_with_plan(udf, _dists(udf, 6), plan=plan)
    assert _leaked_threads() == []


@pytest.mark.parametrize("knobs", QUARANTINE_PLANS)
def test_quarantine_keeps_the_last_bound_olgapro_had(knobs):
    udf = _failing_udf(_FailAfter(25))  # survives initial training, not refinement
    plan = ExecutionPlan(retry=RetryPolicy(max_attempts=2, quarantine=True), **knobs)
    result = _engine().compute_with_plan(udf, _dists(udf, 6), plan=plan)
    # The outage struck mid-query, and the tuples after the failed one were
    # still committed: every tuple has a verdict.
    assert len(result.verdicts) == 6
    degraded = result.degraded()
    assert degraded
    assert any(np.isfinite(v.bound) for v in degraded), (
        "a tuple quarantined mid-refinement must carry the last finite "
        "bound the online algorithm computed, not NaN"
    )
    assert _leaked_threads() == []


@pytest.mark.parametrize("knobs", QUARANTINE_PLANS)
def test_quarantined_tuples_report_only_the_calls_that_were_charged(knobs):
    """A failed evaluation charges nothing, so no tuple reports it as a call."""
    udf = _failing_udf(_FailAfter(25))
    plan = ExecutionPlan(retry=RetryPolicy(max_attempts=2, quarantine=True), **knobs)
    result = _engine().compute_with_plan(udf, _dists(udf, 6), plan=plan)
    assert result.degraded()
    reported = sum(output.udf_calls for output in result.outputs)
    if "pipeline_lookahead" in knobs:
        # A prefetch no tuple consumed is charged but reported by no tuple.
        assert reported <= udf.call_count
    else:
        assert reported == udf.call_count


def test_quarantine_without_retry_policy_is_inert():
    udf = _failing_udf()
    with pytest.raises(UDFError):
        _engine().compute_with_plan(udf, _dists(udf), plan=ExecutionPlan())


# ---------------------------------------------------------------------------
# Query surface: the operators install the plan's retry policy themselves
# (compute_with_plan is not on their path), quarantined rows materialise
# ---------------------------------------------------------------------------


def _query_run(inject: bool):
    relation = generate_galaxy_relation(6, random_state=21)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=13, n_samples=120
    )
    udf = reference_function("F3")
    schedule = None
    if inject:
        schedule = FaultSchedule(0.3, seed=1234, max_failures_per_point=2)
        udf = FaultInjectingUDF(udf, schedule)
    plan = ExecutionPlan(batch_size=3, retry=RetryPolicy(max_attempts=3))
    result = (
        Query(relation)
        .apply_udf(udf, ["ra_offset", "dec_offset"], alias="f", plan=plan)
        .run(engine)
    )
    return result, schedule, udf


def test_query_surface_retry_recovers_bit_identically():
    clean, _, clean_udf = _query_run(False)
    faulty, schedule, faulty_udf = _query_run(True)
    assert schedule.injected_failures > 0
    for a, b in zip(clean.relation.tuples, faulty.relation.tuples):
        assert np.array_equal(a["f"].samples, b["f"].samples)
        assert a.annotations["f_error_bound"] == b.annotations["f_error_bound"]
    assert clean_udf.call_count == faulty_udf.call_count
    assert getattr(faulty_udf, "_retry_policy", None) is None  # uninstalled


def test_query_surface_quarantine_materialises_degraded_rows():
    udf = FaultInjectingUDF(reference_function("F3"), FaultSchedule(1.0, seed=0))
    plan = ExecutionPlan(retry=RetryPolicy(max_attempts=2, quarantine=True))
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=13, n_samples=120
    )
    result = (
        Query(generate_galaxy_relation(4, random_state=21))
        .apply_udf(udf, ["ra_offset", "dec_offset"], alias="f", plan=plan)
        .run(engine)
    )
    assert [v.verdict for v in result.verdicts] == [VERDICT_DEGRADED] * 4
    for row in result.relation.tuples:
        assert row["f"] is None  # "value unavailable" is schema-storable
        assert row.annotations["f_degraded"] is True
    assert getattr(udf, "_retry_policy", None) is None


def test_where_udf_retains_quarantined_tuples_as_degraded():
    udf = FaultInjectingUDF(reference_function("F3"), FaultSchedule(1.0, seed=0))
    plan = ExecutionPlan(retry=RetryPolicy(max_attempts=2, quarantine=True))
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=13, n_samples=120
    )
    result = (
        Query(generate_galaxy_relation(3, random_state=21))
        .where_udf(
            udf, ["ra_offset", "dec_offset"], alias="f",
            low=-10.0, high=10.0, threshold=0.1, plan=plan,
        )
        .run(engine)
    )
    # A failed evaluation rules nothing out: every tuple is retained, degraded.
    assert len(result.relation.tuples) == 3
    assert [v.verdict for v in result.verdicts] == [VERDICT_DEGRADED] * 3


@pytest.mark.parametrize("mode", ["serial", "threads", "asyncio"])
def test_injected_failure_paths_leak_nothing(mode):
    policy = RetryPolicy(max_attempts=2, quarantine=True)
    if mode == "asyncio":
        schedule = FaultSchedule(1.0, seed=0)
        udf = FaultInjectingAsyncUDF(
            async_service_udf("F4", latency=1e-3, random_state=7), schedule
        )
        plan = ExecutionPlan(batch_size=3, async_inflight=2,
                             transport="asyncio", retry=policy)
    elif mode == "threads":
        udf = _failing_udf()
        plan = ExecutionPlan(batch_size=3, async_inflight=2,
                             transport="threads", retry=policy)
    else:
        udf = _failing_udf()
        plan = ExecutionPlan(batch_size=3, retry=policy)
    result = _engine().compute_with_plan(udf, _dists(udf), plan=plan)
    assert len(result.degraded()) == 3
    assert _leaked_threads() == []


# ---------------------------------------------------------------------------
# Shard recovery (dead pool workers)
# ---------------------------------------------------------------------------

class _CrashOnce:
    """Kill the worker process on first contact, succeed ever after.

    The flag file is the cross-process memory: the first worker to
    evaluate creates it and dies (as a segfault would — no exception),
    every later process sees it and computes normally.
    """

    def __init__(self, flag_path: str) -> None:
        self.flag_path = flag_path

    def __call__(self, x):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w"):
                pass
            os._exit(13)
        return float(np.sin(x[0]) + np.cos(x[1]))


def _crash_udf(flag_path: str) -> UDF:
    return UDF(_CrashOnce(flag_path), dimension=2, name="crash-once",
               domain=(np.zeros(2), np.full(2, 10.0)))


def test_dead_worker_shard_is_reexecuted_bit_identically(tmp_path):
    flag = str(tmp_path / "crashed-once")

    def run(pre_crashed: bool):
        if pre_crashed and not os.path.exists(flag):
            with open(flag, "w"):
                pass
        udf = _crash_udf(flag)
        executor = ExecutionPlan(
            workers=2, batch_size=4, parallel_seed=1, retry=RetryPolicy(shard_attempts=2)
        ).resolve(_engine(n_samples=150))
        return executor.compute_batch(udf, _dists(udf, n_tuples=8))

    recovered = run(pre_crashed=False)  # first round crashes, second recovers
    os.remove(flag)
    with open(flag, "w"):
        pass
    clean = run(pre_crashed=True)  # never crashes
    _assert_outputs_identical(clean, recovered)


def test_dead_worker_without_retry_raises_shard_failure(tmp_path):
    udf = _crash_udf(str(tmp_path / "never-created-by-retry"))
    # Crash every round: the flag is re-pointed at a path the dying worker
    # creates, so with no retry the very first round is terminal.
    executor = ExecutionPlan(workers=2, batch_size=4, parallel_seed=1).resolve(_engine(n_samples=150))
    with pytest.raises(QueryError, match="worker process died"):
        executor.compute_batch(udf, _dists(udf, n_tuples=8))


def test_the_query_after_a_worker_crash_runs_on_a_fresh_pool(tmp_path):
    flag = str(tmp_path / "crashed-once")
    udf = _crash_udf(flag)
    plan = ExecutionPlan(workers=2, batch_size=4, parallel_seed=1)
    with pytest.raises(QueryError, match="worker process died"):
        plan.resolve(_engine(n_samples=150)).compute_batch(udf, _dists(udf, n_tuples=8))
    assert os.path.exists(flag)  # the black box computes from now on
    outputs = plan.resolve(_engine(n_samples=150)).compute_batch(udf, _dists(udf, n_tuples=8))
    assert len(outputs) == 8


class _CrashMidGroup:
    """Kill the worker process on its ``crash_at``-th call, once; compute otherwise.

    The call count is per process (a class attribute: every shard of a
    group unpickles its own copy of the UDF), so the process dies while
    the other shards of its group are still running; the flag file makes
    every later process compute normally.
    """

    calls = 0

    def __init__(self, flag_path: str, crash_at: int) -> None:
        self.flag_path, self.crash_at = flag_path, crash_at

    def __call__(self, x):
        type(self).calls += 1
        if type(self).calls >= self.crash_at and not os.path.exists(self.flag_path):
            with open(self.flag_path, "w"):
                pass
            os._exit(13)
        time.sleep(1e-3)
        return float(np.sin(x[0]) + np.cos(x[1]))


@pytest.fixture
def all_shards_at_once(monkeypatch):
    """Every worker runs as many shards at once as it may, whatever the UDF measured."""
    monkeypatch.setattr(parallel, "shards_per_process", lambda busy: parallel.SHARDS_PER_PROCESS)


def test_a_crash_mid_group_retries_bitwise_a_clean_run(tmp_path, all_shards_at_once):
    flag = str(tmp_path / "crashed-once")

    def run():
        udf = UDF(_CrashMidGroup(flag, crash_at=10), dimension=2, name="crash-mid-group",
                  domain=(np.zeros(2), np.full(2, 10.0)))
        # Eight shards on two workers: two groups, every shard of a group in flight.
        executor = ExecutionPlan(
            workers=2, batch_size=2, parallel_seed=1, retry=RetryPolicy(shard_attempts=2)
        ).resolve(_engine(n_samples=150))
        return executor.compute_batch(udf, _dists(udf, n_tuples=16))

    recovered = run()  # a worker dies on its tenth call; its group is re-run
    assert os.path.exists(flag)
    clean = run()  # the flag stands: nothing crashes
    _assert_outputs_identical(clean, recovered)


class _HoldingALock(UDFError):
    """A typed black-box error (passed on unwrapped) that cannot be sent back: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def _raise_far_out(x):
    if x[0] > 50.0:
        raise RuntimeError("black box exploded far out")
    return float(np.sin(x[0]) + np.cos(x[1]))


def _raise_unpicklable_far_out(x):
    if x[0] > 50.0:
        raise _HoldingALock("black box exploded far out")
    return float(np.sin(x[0]) + np.cos(x[1]))


@pytest.mark.parametrize("black_box", [_raise_far_out, _raise_unpicklable_far_out],
                         ids=["picklable", "unpicklable"])
def test_the_lowest_failing_shard_is_named_also_inside_a_group(black_box, all_shards_at_once):
    udf = UDF(black_box, dimension=2, name="far-out",
              domain=(np.zeros(2), np.full(2, 200.0)))
    # Four 2-tuple shards on two workers run as groups [0, 1] and [2, 3];
    # shards 1 and 3 — the second of each group — hold the far-out tuples.
    centres = [1.0, 2.0, 100.0, 110.0, 3.0, 4.0, 120.0, 130.0]
    dists = [IndependentJoint([Gaussian(c, 0.5), Gaussian(1.0, 0.5)]) for c in centres]
    engine = UDFExecutionEngine(strategy="mc", requirement=REQUIREMENT, random_state=3,
                                n_samples=50)
    executor = ExecutionPlan(workers=2, batch_size=2, parallel_seed=5).resolve(engine)
    with pytest.raises(ShardFailureError, match="far out") as excinfo:
        executor.compute_batch(udf, dists)
    message = str(excinfo.value)
    assert "parallel shard 1 failed" in message
    assert "tuples 2..3 of 8" in message
    assert "spawn_key=1" in message


def _exploding(x):
    raise RuntimeError("black box exploded")


def test_shard_failure_message_reproduces_the_shard():
    udf = UDF(_exploding, dimension=2, name="exploding",
              domain=(np.zeros(2), np.full(2, 10.0)))
    executor = ExecutionPlan(workers=2, batch_size=4, parallel_seed=123).resolve(_engine(n_samples=150))
    with pytest.raises(ShardFailureError, match="parallel shard") as excinfo:
        executor.compute_batch(udf, _dists(udf, n_tuples=8))
    message = str(excinfo.value)
    # Everything needed to re-run the failing shard in isolation.
    assert "tuples" in message
    assert "base_seed=" in message
    assert "spawn_key=" in message


# ---------------------------------------------------------------------------
# Transport drain deadline (typed, pool still torn down)
# ---------------------------------------------------------------------------

def test_drain_timeout_is_typed_and_pool_is_torn_down():
    transport = ThreadPoolTransport()
    transport.open(2, label="drain-test")
    try:
        udf = reference_function("F1")
        real = transport.submit_rows(udf, np.array([[1.0, 2.0]]))
        stuck: Future = Future()  # an evaluation that never settles
        started = time.monotonic()
        with pytest.raises(TransportDrainTimeoutError, match="threads") as excinfo:
            transport.drain(real + [stuck], timeout=0.2)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0  # the deadline actually bounded the wait
        assert "0.2" in str(excinfo.value)
        assert isinstance(excinfo.value, QueryError)  # typed, not the raw timeout
    finally:
        transport.close()
    assert _leaked_threads() == []  # the pool was still torn down


# ---------------------------------------------------------------------------
# Serving circuit breaker and graceful drain
# ---------------------------------------------------------------------------

def _boom(X):
    raise RuntimeError("dependency down")


def _breaker_udf(fail: bool, name: str = "breaker-target") -> UDF:
    if fail:
        return UDF(_boom, dimension=1, name=name, vectorized=True)
    return UDF(
        lambda X: np.sin(3.0 * np.atleast_2d(X)[:, 0]),
        dimension=1, name=name, vectorized=True,
    )


def _slow_udf(per_call: float = 0.02, name: str = "slow") -> UDF:
    def f(X: np.ndarray) -> np.ndarray:
        time.sleep(per_call)
        return np.sin(3.0 * np.atleast_2d(X)[:, 0])

    return UDF(f, dimension=1, name=name, vectorized=True)


def _service_query(udf: UDF) -> Query:
    return Query(RELATION).apply_udf(udf, ["redshift"], alias="out")


def _fail_one(service: QueryService, name: str = "breaker-target") -> None:
    handle = service.submit(_service_query(_breaker_udf(fail=True, name=name)),
                            _engine())
    with pytest.raises(ReproError):
        handle.result(timeout=30)


def test_breaker_opens_after_consecutive_failures_and_probes():
    with QueryService(worker_budget=2, breaker_threshold=2,
                      breaker_cooldown=0.2) as service:
        _fail_one(service)
        _fail_one(service)
        # Tripped: fast-fail, no queue slot, no engine work.
        with pytest.raises(CircuitOpenError, match="breaker-target") as excinfo:
            service.submit(_service_query(_breaker_udf(fail=True)), _engine())
        assert "2 consecutive query failures" in str(excinfo.value)
        assert service.stats["fast_failed"] == 1
        # After the cooldown one half-open probe is admitted; it succeeds
        # and closes the breaker for good.
        time.sleep(0.25)
        probe = service.submit(_service_query(_breaker_udf(fail=False)), _engine())
        probe.result(timeout=30)
        after = service.submit(_service_query(_breaker_udf(fail=False)), _engine())
        after.result(timeout=30)
    assert _leaked_threads() == []


def test_breaker_failed_probe_reopens_the_cooldown():
    with QueryService(worker_budget=2, breaker_threshold=1,
                      breaker_cooldown=0.2) as service:
        _fail_one(service)
        time.sleep(0.25)
        _fail_one(service)  # the half-open probe — and it fails
        # Re-opened: straight back to fast-fail without a fresh streak.
        with pytest.raises(CircuitOpenError):
            service.submit(_service_query(_breaker_udf(fail=True)), _engine())


def test_breaker_rejects_second_probe_while_first_in_flight():
    with QueryService(worker_budget=2, breaker_threshold=1,
                      breaker_cooldown=0.1) as service:
        _fail_one(service, name="slow")
        time.sleep(0.15)
        probe = service.submit(_service_query(_slow_udf(name="slow")), _engine())
        with pytest.raises(CircuitOpenError, match="half-open"):
            service.submit(_service_query(_slow_udf(name="slow")), _engine())
        probe.result(timeout=60)


def test_breaker_disabled_with_none_threshold():
    with QueryService(worker_budget=2, breaker_threshold=None) as service:
        for _ in range(4):
            _fail_one(service)
        handle = service.submit(_service_query(_breaker_udf(fail=False)), _engine())
        handle.result(timeout=30)


def test_breaker_ignores_cancellations():
    with QueryService(worker_budget=2, breaker_threshold=1,
                      breaker_cooldown=60.0) as service:
        handle = service.submit(_service_query(_slow_udf(name="cancelme")), _engine())
        handle.cancel()
        with pytest.raises(QueryCancelledError):
            handle.result(timeout=30)
        # A cancellation says nothing about the UDF's health: not recorded.
        again = service.submit(_service_query(_slow_udf(name="cancelme")), _engine())
        again.result(timeout=60)


def test_breaker_validates_configuration():
    from repro.exceptions import ServiceError

    with pytest.raises(ServiceError, match="breaker_threshold"):
        QueryService(breaker_threshold=0)
    with pytest.raises(ServiceError, match="breaker_cooldown"):
        QueryService(breaker_cooldown=0.0)


def test_close_drain_finishes_in_flight_queries():
    service = QueryService(worker_budget=2)
    handle = service.submit(_service_query(_slow_udf()), _engine())
    service.close(drain=True)
    result = handle.result(timeout=0.0)  # already finished by the drain
    assert len(result.relation) == len(RELATION)
    assert service.stats["completed"] == 1
    assert service.stats["cancelled"] == 0
    assert _leaked_threads() == []
