"""Differential harness: every plan ≡ the per-tuple reference, bit for bit.

The chunk loop (:meth:`repro.core.olgapro.OLGAPRO.process_batch`) draws
each tuple's Monte-Carlo samples in tuple order and cuts the stream at
chunk boundaries; what a chunk shares is the per-call setup, the
transport session, the speculation stage and Monte Carlo's single
``evaluate_batch`` call.  None of that may show: under the same seed
every executor layer must produce bit-identical

* output sample arrays (``distribution.samples``),
* error bounds (``error_bound``),
* per-tuple UDF charge counters (``udf_calls``) and the UDF's own
  ``call_count``,
* predicate verdicts,

to :meth:`UDFExecutionEngine.compute` called once per tuple.  These tests
run the same workload through the plan matrix (serial batch, a window on
each transport, pipeline lookahead, sharded workers) and assert exact
equality — no tolerances.  A refinement window above one legitimately
changes the trajectory, so those plans are held against a second run of
themselves (and ``tests/test_ground_truth.py`` holds them against the
true output distribution).

Workloads cover 1-D streams (Gaussian and Gamma inputs) and a 2-D stream
of ``IndependentJoint`` inputs, which every transport (incl. asyncio) can
carry.  The file name is historical: the columnar encoding it once
exercised is gone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.core.filtering import SelectionPredicate
from repro.distributions.continuous import Gaussian
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.udf.synthetic import (
    async_service_udf,
    high_dimensional_function,
    reference_function,
)
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.2, delta=0.05)
N_TUPLES = 10
PREDICATE = SelectionPredicate(low=-1.0, high=1.0, threshold=0.1)


def _make_udf(workload: str):
    if workload == "joint-2d":
        # 2-D inputs arrive as IndependentJoint objects.  An AsyncUDF so
        # every transport (incl. asyncio) runs.
        return async_service_udf("F2", latency=0.0)
    return high_dimensional_function(1, simulated_eval_time=1e-4)


def _fixture(workload: str, seed=31, stream_seed=4):
    """Fresh (udf, engine, distributions) for one named workload."""
    udf = _make_udf(workload)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=seed, n_samples=96
    )
    family = "gamma" if workload == "gamma-1d" else "gaussian"
    dists = list(
        input_stream(
            workload_for_udf(udf, family=family),
            N_TUPLES,
            random_state=np.random.default_rng(stream_seed),
        )
    )
    return udf, engine, dists


def _run(workload: str, plan: ExecutionPlan | None, predicate=None):
    """``(udf, outputs)`` under ``plan``; ``None`` is the per-tuple reference."""
    udf, engine, dists = _fixture(workload)
    if plan is not None:
        return udf, engine.compute_with_plan(udf, dists, plan, predicate=predicate).outputs
    if predicate is not None:
        return udf, [engine.compute_with_predicate(udf, dist, predicate) for dist in dists]
    return udf, [engine.compute(udf, dist) for dist in dists]


def _assert_bit_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for i, (ref, got) in enumerate(zip(reference, candidate)):
        assert ref.dropped == got.dropped, f"verdict diverged at tuple {i}"
        if ref.distribution is not None:
            assert np.array_equal(
                ref.distribution.samples, got.distribution.samples
            ), f"sample block diverged at tuple {i}"
        assert ref.error_bound == got.error_bound, f"bound diverged at tuple {i}"
        assert ref.udf_calls == got.udf_calls, f"UDF charge diverged at tuple {i}"


WORKLOADS = ["gaussian-1d", "gamma-1d", "joint-2d"]


def _matrix(plans: dict) -> list:
    """``workload × plan`` cases (the asyncio transport needs the AsyncUDF workload)."""
    return [
        pytest.param(workload, plan, id=f"{workload}-{name}")
        for workload in WORKLOADS
        for name, plan in plans.items()
        if plan.transport != "asyncio" or workload == "joint-2d"
    ]


#: Plans whose trajectory is the per-tuple one: a refinement window of one.
PLAN_MATRIX = _matrix({
    "batched": ExecutionPlan(batch_size=4),
    "window-threads": ExecutionPlan(batch_size=4, async_inflight=1),
    "window-asyncio": ExecutionPlan(batch_size=4, async_inflight=1, transport="asyncio"),
    "lookahead": ExecutionPlan(batch_size=4, async_inflight=1, pipeline_lookahead=2),
    "workers": ExecutionPlan(batch_size=4, workers=1),
})

#: Plans whose refinement window changes the trajectory.
WINDOWED_MATRIX = _matrix({
    "inflight-threads": ExecutionPlan(batch_size=4, async_inflight=2),
    "inflight-asyncio": ExecutionPlan(batch_size=4, async_inflight=2, transport="asyncio"),
    "lookahead": ExecutionPlan(batch_size=4, pipeline_lookahead=2),
})


@pytest.mark.parametrize("workload, plan", PLAN_MATRIX)
def test_every_plan_matches_the_per_tuple_reference(workload, plan):
    """The headline differential: for every workload × plan combination the
    chunk pipeline is bit-identical to per-tuple ``engine.compute`` —
    values, bounds, verdicts and charge counters."""
    udf_ref, reference = _run(workload, None)
    udf_got, candidate = _run(workload, plan)
    _assert_bit_identical(reference, candidate)
    if plan.lookahead == 1:  # a lookahead stage also pays for prefetches
        assert udf_ref.call_count == udf_got.call_count


@pytest.mark.parametrize("workload, plan", WINDOWED_MATRIX)
def test_each_windowed_plan_is_bitwise_repeatable(workload, plan):
    """Where the plan itself moves the trajectory off the per-tuple one, it
    must still be a function of the seed: a second run of the same plan
    is bitwise the first."""
    udf_first, first = _run(workload, plan)
    udf_second, second = _run(workload, plan)
    _assert_bit_identical(first, second)
    if plan.lookahead == 1:
        assert udf_first.call_count == udf_second.call_count


@pytest.mark.parametrize("workload", WORKLOADS)
def test_chunk_boundaries_do_not_leak_into_results(workload):
    """Chunk size must not leak into results: every batch size matches the
    per-tuple reference, including the final ragged chunk (10 tuples at
    batch_size=4 → chunks of 4, 4, 2)."""
    _, reference = _run(workload, None)
    for batch_size in (3, 4, N_TUPLES + 5):
        _, candidate = _run(workload, ExecutionPlan(batch_size=batch_size))
        _assert_bit_identical(reference, candidate)


def test_predicate_filtering_matches_the_per_tuple_reference():
    """``where_udf``-style predicate evaluation (the online-filtering path)
    keeps verdict-for-verdict identity."""
    udf_ref, reference = _run("gaussian-1d", None, predicate=PREDICATE)
    udf_got, candidate = _run("gaussian-1d", ExecutionPlan(batch_size=4), predicate=PREDICATE)
    _assert_bit_identical(reference, candidate)
    assert udf_ref.call_count == udf_got.call_count


# ---------------------------------------------------------------------------
# Sampling: one draw per tuple, in tuple order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "plan", [ExecutionPlan(), ExecutionPlan(batch_size=32)], ids=["per-tuple", "batch-32"]
)
def test_each_tuple_draws_through_its_own_sample_call(plan, monkeypatch):
    """A chunk of 1-D Gaussian tuples calls ``Distribution.sample`` exactly
    once per tuple, in tuple order — the one sampling path, which is also
    the call a profiler's ``distributions.sample`` span counts."""
    udf, engine, dists = _fixture("gaussian-1d")
    assert all(type(dist) is Gaussian for dist in dists)
    sampled = []
    real_sample = Gaussian.sample

    def spy_sample(self, size, random_state=None):
        sampled.append(self)
        return real_sample(self, size, random_state=random_state)

    monkeypatch.setattr(Gaussian, "sample", spy_sample)
    plan.resolve(engine).compute_batch(udf, dists)
    assert len(sampled) == N_TUPLES
    assert all(got is dist for got, dist in zip(sampled, dists))


# ---------------------------------------------------------------------------
# One inference step per model state
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_samples", [None, 64], ids=["contract-m", "m64"])
def test_each_tuple_infers_once_per_model_state(n_samples, monkeypatch):
    """Every inference is the one per-tuple step, run once per model state
    a tuple sees: its first pass, one re-check per absorbed point (the
    paper's window of one) and one re-inference per retrain.  The
    refinement loop starts from the first pass's inference rather than
    repeating it — at the sample count the contract derives and at a
    small one alike."""
    from repro.core.olgapro import OLGAPRO

    calls = []
    real_infer = OLGAPRO._infer

    def spy_infer(self, samples, box):
        calls.append(1)
        return real_infer(self, samples, box)

    monkeypatch.setattr(OLGAPRO, "_infer", spy_infer)
    udf = reference_function("F3", simulated_eval_time=0.0)
    processor = OLGAPRO(
        udf,
        requirement=AccuracyRequirement(epsilon=0.15, delta=0.05),
        n_samples=n_samples,
        random_state=2,
    )
    stream = list(input_stream(workload_for_udf(udf), 16, random_state=np.random.default_rng(9)))
    results = processor.process_batch(stream)
    assert processor.mc_samples() == (793 if n_samples is None else n_samples)
    assert any(result.points_added for result in results)
    expected = sum(1 + result.points_added + result.retrained for result in results)
    assert len(calls) == expected
