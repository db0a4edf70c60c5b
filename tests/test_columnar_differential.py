"""Differential harness: columnar storage ≡ tuple store, bit for bit.

The storage layer's whole contract (see :mod:`repro.engine.columnar` and
the ``columnar=True`` path of :meth:`repro.core.olgapro.OLGAPRO.process_batch`)
is that ``ExecutionPlan(storage="columnar")`` is an *implementation detail*:
under the same seed every executor layer must produce bit-identical

* output sample arrays (``distribution.samples``),
* error bounds (``error_bound``),
* per-tuple UDF charge counters (``udf_calls``) and the UDF's own
  ``call_count``,
* predicate verdicts,

whether the chunk ran through per-tuple objects or through column blocks.
These tests run the same workload through both storages across the plan
matrix (serial batch, overlap windows on each transport, pipeline
lookahead, sharded workers) and assert exact equality — no tolerances.

Workloads cover both regimes of the encoder: a 1-D Gaussian (and Gamma)
stream packs into an :class:`~repro.distributions.columns.UncertainColumn`
and exercises the stacked fast path; a 2-D stream of
``IndependentJoint`` inputs is *not* encodable, so the columnar executor
must take its per-tuple fallback — and still match.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.core.olgapro as olgapro_module
from repro.config import DEFAULT_GAMMA_FRACTION, DEFAULT_MC_FRACTION
from repro.core.accuracy import AccuracyRequirement
from repro.core.emulator import GPEmulator
from repro.core.local_inference import (
    ColumnarKernelCache,
    LocalInferenceEngine,
    global_inference_cached,
    global_inference_cached_block,
)
from repro.distributions.columns import attempt_encode, stacking_supported
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.udf.synthetic import (
    async_service_udf,
    high_dimensional_function,
    reference_function,
)
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.2, delta=0.05)
N_TUPLES = 10


def _make_udf(workload: str):
    if workload == "joint-2d":
        # 2-D inputs arrive as IndependentJoint objects, which the column
        # encoder rejects — the differential must hold on the fallback
        # path too.  An AsyncUDF so every transport (incl. asyncio) runs.
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


def _run(workload: str, plan: ExecutionPlan):
    udf, engine, dists = _fixture(workload)
    result = engine.compute_with_plan(udf, dists, plan)
    return udf, result


def _assert_bit_identical(reference, candidate):
    ref_outputs, got_outputs = reference.outputs, candidate.outputs
    assert len(ref_outputs) == len(got_outputs)
    for i, (ref, got) in enumerate(zip(ref_outputs, got_outputs)):
        assert np.array_equal(
            ref.distribution.samples, got.distribution.samples
        ), f"sample block diverged at tuple {i}"
        assert ref.error_bound == got.error_bound, f"bound diverged at tuple {i}"
        assert ref.udf_calls == got.udf_calls, f"UDF charge diverged at tuple {i}"
    assert [v.verdict for v in reference.verdicts] == [
        v.verdict for v in candidate.verdicts
    ]


WORKLOADS = ["gaussian-1d", "gamma-1d", "joint-2d"]

PLAN_MATRIX = [
    pytest.param(ExecutionPlan(batch_size=4), id="batched"),
    pytest.param(ExecutionPlan(batch_size=4, async_inflight=2), id="inflight-threads"),
    pytest.param(
        ExecutionPlan(batch_size=4, async_inflight=2, transport="asyncio"),
        id="inflight-asyncio",
    ),
    pytest.param(ExecutionPlan(batch_size=4, pipeline_lookahead=2), id="lookahead"),
    pytest.param(ExecutionPlan(batch_size=4, workers=1), id="workers"),
]


@pytest.mark.parametrize("plan", PLAN_MATRIX)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_columnar_matches_tuple_store_across_plan_matrix(workload, plan):
    """The headline differential: for every workload × plan combination,
    ``storage="columnar"`` is bit-identical to ``storage="tuple"`` —
    values, bounds, verdicts and charge counters."""
    if plan.transport == "asyncio" and workload != "joint-2d":
        pytest.skip("asyncio transport requires the AsyncUDF workload")
    udf_ref, reference = _run(workload, plan)
    udf_col, candidate = _run(workload, replace(plan, storage="columnar"))
    _assert_bit_identical(reference, candidate)
    assert udf_ref.call_count == udf_col.call_count


@pytest.mark.parametrize("workload", WORKLOADS)
def test_columnar_matches_across_chunk_boundaries(workload):
    """Chunk size must not leak into results: a columnar run at one batch
    size matches the tuple store at the same size, including the final
    ragged chunk (10 tuples at batch_size=4 → chunks of 4, 4, 2)."""
    for batch_size in (3, 4, N_TUPLES + 5):
        plan = ExecutionPlan(batch_size=batch_size)
        udf_ref, reference = _run(workload, plan)
        _, candidate = _run(workload, replace(plan, storage="columnar"))
        _assert_bit_identical(reference, candidate)


def test_columnar_matches_under_predicate_filtering():
    """``where_udf``-style predicate evaluation (the online-filtering path)
    keeps verdict-for-verdict identity under the columnar storage."""
    from repro.core.filtering import SelectionPredicate

    plans = [
        ExecutionPlan(batch_size=4, storage=storage)
        for storage in ("tuple", "columnar")
    ]
    outcomes = []
    for plan in plans:
        udf, engine, dists = _fixture("gaussian-1d")
        executor = plan.resolve(engine)
        predicate = SelectionPredicate(low=-1.0, high=1.0, threshold=0.1)
        outputs = executor.compute_batch_with_predicate(udf, dists, predicate)
        outcomes.append((udf.call_count, outputs))
    (ref_calls, ref_outputs), (col_calls, col_outputs) = outcomes
    assert ref_calls == col_calls
    assert len(ref_outputs) == len(col_outputs)
    for ref, got in zip(ref_outputs, col_outputs):
        assert ref.error_bound == got.error_bound
        assert ref.udf_calls == got.udf_calls


def test_block_inference_matches_per_tuple_at_production_shape():
    """The column kernels at the shape a real query has, not the probe's 7 × 5.

    ε = 0.12 draws m = 1239 Monte-Carlo rows per tuple and a warm F1 model
    holds about 56 training points.  At that shape a tall matrix-*vector*
    product no longer equals its per-block products in the last ulp (the
    matrix-matrix identity still holds), which is why the block paths take
    their means per row block.
    """
    if not stacking_supported():
        pytest.skip("platform fails the stacking identity probes")
    udf = reference_function("F1", simulated_eval_time=0.0)
    emulator = GPEmulator(udf)
    emulator.train_initial(56, random_state=np.random.default_rng(31))
    gp = emulator.gp
    m = AccuracyRequirement(epsilon=0.12, delta=0.05).split(DEFAULT_MC_FRACTION).mc_samples
    assert m == 1239
    rng = np.random.default_rng(4)
    sample_sets = [d.sample(m, random_state=rng) for d in input_stream(
        workload_for_udf(udf), 32, random_state=rng)]
    cache = ColumnarKernelCache(gp, sample_sets)
    engine = LocalInferenceEngine(
        gamma_threshold=DEFAULT_GAMMA_FRACTION * float(np.ptp(gp.y_train))
    )
    indices = range(len(sample_sets))
    local = engine.predict_cached_block(gp, cache, indices)
    grouped = len({result.selected_indices.tobytes() for result in local}) < len(local)
    assert grouped, "every tuple selected its own subset: the tall path never ran"
    for i, block in zip(indices, local):
        single = engine.predict_cached(gp, cache, i)
        assert np.array_equal(block.means, single.means), i
        assert np.array_equal(block.stds, single.stds), i
    for i, block in zip(indices, global_inference_cached_block(gp, cache, indices)):
        single = global_inference_cached(gp, cache, i)
        assert np.array_equal(block.means, single.means), i
        assert np.array_equal(block.stds, single.stds), i


# ---------------------------------------------------------------------------
# Guards: the differential above must not pass vacuously
# ---------------------------------------------------------------------------

def test_workload_encodability_matches_intent():
    """The 1-D streams really pack into columns and the 2-D stream really
    does not — otherwise the fallback rows of the matrix test nothing."""
    for workload, encodable in [
        ("gaussian-1d", True),
        ("gamma-1d", True),
        ("joint-2d", False),
    ]:
        _, _, dists = _fixture(workload)
        assert (attempt_encode(dists) is not None) is encodable, workload


def test_columnar_fast_path_engages(monkeypatch):
    """On a platform with exact stacking, the encodable workload must run
    through the stacked sampler — not silently fall back per tuple."""
    if not stacking_supported():
        pytest.skip("platform fails the stacking identity probes")
    calls = {"n": 0}
    real = olgapro_module.sample_stacked

    def spy(column, size, rng):
        calls["n"] += 1
        return real(column, size, rng)

    monkeypatch.setattr(olgapro_module, "sample_stacked", spy)
    udf, engine, dists = _fixture("gaussian-1d")
    ExecutionPlan(batch_size=4, storage="columnar").resolve(engine).compute_batch(udf, dists)
    assert calls["n"] >= 1


def test_tuple_storage_never_touches_the_column_path(monkeypatch):
    """The default storage must not consult the columnar machinery at all —
    the differential is between two genuinely distinct code paths."""

    def forbidden(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("tuple storage entered the columnar sampler")

    monkeypatch.setattr(olgapro_module, "sample_stacked", forbidden)
    udf, engine, dists = _fixture("gaussian-1d")
    outputs = ExecutionPlan(batch_size=4).resolve(engine).compute_batch(udf, dists)
    assert len(outputs) == len(dists)
