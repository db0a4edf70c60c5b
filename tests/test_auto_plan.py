"""The profile-driven auto-planner and the ``plan="auto"`` spelling.

Contracts under test (see :meth:`repro.engine.plan.ExecutionPlan.auto` and
:mod:`repro.udf.catalog`):

* the knob table — a *neutral* profile resolves to the serial batched
  path; a moderate-latency UDF gets an overlap window; a slow
  async-capable UDF gets the asyncio transport, a wider window and
  cross-tuple lookahead (the non-default-knob acceptance criterion);
  ``async_capable`` alone picks the carrier, and a neutral plan opens
  none;
* ``plan="auto"`` is *bit-identical* to spelling the resolved
  :class:`ExecutionPlan` explicitly — on the engine entry point, the
  query builder (including name-based catalog UDFs) and across workload
  families — because ``auto`` only ever *selects* a plan, never changes
  evaluation semantics; likewise the carrier ``async_capable`` picks
  never changes a result or a call count;
* ``is_auto_plan`` accepts exactly the ``"auto"`` spelling and rejects
  every other string with a typed :class:`~repro.exceptions.PlanError`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.engine import (
    AUTO_PLAN,
    TRANSPORTS,
    BatchExecutor,
    ExecutionPlan,
    Query,
    is_auto_plan,
)
from repro.engine.executor import UDFExecutionEngine
from repro.engine.sdss import generate_galaxy_relation
from repro.exceptions import PlanError
from repro.udf.base import UDF
from repro.udf.catalog import UDFProfile
from repro.udf.synthetic import async_service_udf
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)


def _engine(seed=7, **kwargs):
    return UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=seed,
        n_samples=120, **kwargs
    )


def _dists(udf, family="gaussian", n=5, seed=3):
    spec = workload_for_udf(udf, family=family)
    return list(input_stream(spec, n, random_state=np.random.default_rng(seed)))


def _neutral_udf():
    return UDF(lambda x: float(np.sum(x)), dimension=2, name="cheap",
               domain=(np.array([1.0, 1.0]), np.array([9.0, 9.0])))


# ---------------------------------------------------------------------------
# The "auto" spelling
# ---------------------------------------------------------------------------

def test_is_auto_plan_accepts_only_the_auto_string():
    assert is_auto_plan(AUTO_PLAN)
    assert is_auto_plan("auto")
    assert not is_auto_plan(None)
    assert not is_auto_plan(ExecutionPlan())
    with pytest.raises(PlanError, match="auto"):
        is_auto_plan("Auto")
    with pytest.raises(PlanError, match="auto"):
        is_auto_plan("fast")


def test_unknown_string_plan_rejected_everywhere():
    engine = _engine()
    with pytest.raises(PlanError):
        UDFExecutionEngine(strategy="gp", plan="turbo")
    with pytest.raises(PlanError):
        Query(generate_galaxy_relation(4, random_state=1)).apply_udf(
            "galage", ["redshift"], alias="g", plan="turbo"
        )
    with pytest.raises(PlanError):
        engine.compute_with_plan(_neutral_udf(), _dists(_neutral_udf(), n=1),
                                 plan="turbo")


# ---------------------------------------------------------------------------
# The knob table
# ---------------------------------------------------------------------------

def test_neutral_profile_resolves_to_the_serial_batched_path():
    plan = ExecutionPlan.auto(_neutral_udf())
    assert plan == ExecutionPlan(batch_size=32)
    executor = plan.resolve(_engine())
    assert type(executor) is BatchExecutor


def test_moderate_blocking_udf_gets_a_thread_window():
    profile = UDFProfile(name="svc", dimension=2, per_call_seconds=2e-3)
    plan = ExecutionPlan.auto(profile)
    assert plan.async_inflight == 4
    assert plan.transport == "threads"
    assert plan.pipeline_lookahead is None


def test_slow_async_udf_gets_nondefault_overlap_knobs():
    # The acceptance criterion: a declared high-latency, async-capable UDF
    # auto-plans to non-default knobs on every overlap axis.
    udf = async_service_udf("F2", latency=0.02)
    plan = ExecutionPlan.auto(udf)
    assert plan.transport == "asyncio"
    assert plan.async_inflight == 8
    assert plan.pipeline_lookahead == 4
    assert plan != ExecutionPlan(batch_size=32)


def test_the_slow_async_plan_resolves_on_a_default_engine():
    """The plan auto emits for a slow async UDF carries its window in
    ``async_inflight`` alone, so an engine built with no knobs runs it."""
    plan = ExecutionPlan.auto(async_service_udf("F2", latency=0.02))
    executor = plan.resolve(_engine())
    assert (executor.window, executor.lookahead) == (8, 4)


@pytest.mark.parametrize("per_call_seconds", [2e-3, 0.02], ids=["moderate", "slow"])
def test_async_capability_alone_picks_the_carrier(per_call_seconds):
    blocking = UDFProfile(name="svc", dimension=2, per_call_seconds=per_call_seconds)
    capable = blocking.with_overrides(async_capable=True)
    blocking_plan = ExecutionPlan.auto(blocking)
    capable_plan = ExecutionPlan.auto(capable)
    assert (blocking_plan.transport, capable_plan.transport) == ("threads", "asyncio")
    # The carrier is the only knob the capability moves.
    assert blocking_plan.with_overrides(transport="asyncio") == capable_plan


def test_relation_size_caps_batch_and_gates_lookahead():
    udf = async_service_udf("F2", latency=0.02)
    small = ExecutionPlan.auto(udf, relation_size=3)
    assert small.batch_size == 3
    assert small.pipeline_lookahead is None  # nothing to look ahead across
    large = ExecutionPlan.auto(udf, relation_size=100)
    assert large.batch_size == 32
    assert large.pipeline_lookahead == 4


def test_a_neutral_auto_plan_opens_no_carrier(monkeypatch):
    """A negligible-cost UDF auto-plans to no window: every UDF call runs
    inline and neither carrier opens."""
    opens = []
    for carrier in TRANSPORTS.values():
        def counting_open(self, *args, _real=carrier.open, **kwargs):
            opens.append(self)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(carrier, "open", counting_open)
    udf = _neutral_udf()
    _engine().compute_with_plan(udf, _dists(udf, n=3), plan="auto")
    assert udf.call_count > 0
    assert opens == []


def test_auto_accepts_name_profile_or_udf():
    by_profile = ExecutionPlan.auto(UDFProfile(name="galage", dimension=1))
    by_name = ExecutionPlan.auto("galage")
    from repro.udf.catalog import default_catalog
    by_udf = ExecutionPlan.auto(default_catalog().get("galage"))
    assert by_profile == by_name == by_udf


# ---------------------------------------------------------------------------
# Bit-identity: "auto" is exactly the explicit plan it selects
# ---------------------------------------------------------------------------

def _assert_results_identical(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert np.array_equal(left.distribution.samples,
                              right.distribution.samples)
        assert left.error_bound == right.error_bound


@pytest.mark.parametrize("family", ["gaussian", "gamma"])
@pytest.mark.parametrize("latency", [0.0, 2e-3])
def test_auto_is_bit_identical_to_the_explicit_plan(family, latency):
    def run(plan):
        udf = async_service_udf("F4", latency=latency)
        engine = _engine()
        dists = _dists(udf, family=family, n=4, seed=4)
        return engine.compute_with_plan(udf, dists, plan=plan)

    probe = async_service_udf("F4", latency=latency)
    explicit = ExecutionPlan.auto(probe, relation_size=4)
    _assert_results_identical(run("auto"), run(explicit))


def test_auto_is_bit_identical_on_the_query_builder_with_a_catalog_name():
    def run(plan):
        relation = generate_galaxy_relation(6, random_state=11)
        return (
            Query(relation)
            .apply_udf("galage", ["redshift"], alias="galage", plan=plan)
            .run(_engine())
        )

    from repro.udf.catalog import default_catalog
    explicit = ExecutionPlan.auto(default_catalog().profile("galage"), relation_size=6)
    auto_result = run("auto")
    explicit_result = run(explicit)
    assert len(auto_result) == len(explicit_result)
    assert [t["galage"].samples.tolist() for t in auto_result] == [
        t["galage"].samples.tolist() for t in explicit_result
    ]


@pytest.mark.parametrize("per_call_seconds", [2e-3, 0.02], ids=["moderate", "slow"])
def test_the_auto_carrier_never_changes_the_result(per_call_seconds):
    # async_capable changes *where* the calls run, never what they compute:
    # the auto plans of the blocking and the async-capable declaration
    # (same window and lookahead, different carrier) agree bit for bit,
    # with equal call counts.
    def run(async_capable):
        profile = UDFProfile(name="f4", dimension=2,
                             per_call_seconds=per_call_seconds,
                             async_capable=async_capable)
        plan = ExecutionPlan.auto(profile)
        assert plan.transport == ("asyncio" if async_capable else "threads")
        udf = async_service_udf("F4", latency=1e-4)
        result = _engine().compute_with_plan(udf, _dists(udf, n=4, seed=6), plan=plan)
        return result, udf.call_count

    threads, threads_calls = run(async_capable=False)
    asyncio_result, asyncio_calls = run(async_capable=True)
    _assert_results_identical(threads, asyncio_result)
    assert threads_calls == asyncio_calls
