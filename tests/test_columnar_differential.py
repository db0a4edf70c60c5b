"""Differential harness: every plan ≡ the per-tuple reference, bit for bit.

The chunk's first pass (:meth:`repro.core.olgapro.OLGAPRO.process_batch`)
stacks as many tuples as fit the kernel cache's row cap while the model is
quiet, draws the chunk's Monte-Carlo block through one stacked generator
call when the inputs encode as a column, and runs grouped kernel algebra
over the window.  All of that is an *implementation detail*: under the same
seed every executor layer must produce bit-identical

* output sample arrays (``distribution.samples``),
* error bounds (``error_bound``),
* per-tuple UDF charge counters (``udf_calls``) and the UDF's own
  ``call_count``,
* predicate verdicts,

to :meth:`UDFExecutionEngine.compute` called once per tuple.  These tests
run the same workload through the plan matrix (serial batch, a window on
each transport, pipeline lookahead, sharded workers) and assert exact
equality — no tolerances.  A refinement window above one legitimately
changes the trajectory, so those plans are held against themselves with
the first pass pinned to one-tuple windows.

Workloads cover both regimes of the encoder: a 1-D Gaussian (and Gamma)
stream packs into an :class:`~repro.distributions.columns.UncertainColumn`
and exercises the stacked draw; a 2-D stream of ``IndependentJoint``
inputs is *not* encodable, so its draws go per tuple — and still match.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.local_inference as local_inference
import repro.distributions.columns as columns
from repro.config import DEFAULT_GAMMA_FRACTION, DEFAULT_MC_FRACTION
from repro.core.accuracy import AccuracyRequirement
from repro.core.emulator import GPEmulator
from repro.core.filtering import SelectionPredicate
from repro.core.local_inference import (
    BatchKernelCache,
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
PREDICATE = SelectionPredicate(low=-1.0, high=1.0, threshold=0.1)


def _make_udf(workload: str):
    if workload == "joint-2d":
        # 2-D inputs arrive as IndependentJoint objects, which the column
        # encoder rejects — the differential must hold on per-tuple draws
        # too.  An AsyncUDF so every transport (incl. asyncio) runs.
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
def test_first_pass_windows_change_nothing_under_a_refinement_window(
    workload, plan, monkeypatch
):
    """Where the plan itself moves the trajectory off the per-tuple one, the
    stacked first pass must still be invisible: the same plan with every
    first-pass window pinned to one tuple is the reference."""
    udf_got, candidate = _run(workload, plan)
    monkeypatch.setattr(local_inference, "_WINDOW_ROWS", 0)
    udf_ref, reference = _run(workload, plan)
    _assert_bit_identical(reference, candidate)
    if plan.lookahead == 1:
        assert udf_ref.call_count == udf_got.call_count


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
    cache = BatchKernelCache(gp, sample_sets)
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


@pytest.mark.parametrize(
    "function, n_training, m",
    [("F1", 120, 64), ("F1", 116, 96), ("F2", 300, 64)],
    ids=["1d-n120-m64", "1d-n116-m96", "2d-n300-m64"],
)
def test_block_inference_matches_per_tuple_where_blas_switches_kernels(function, n_training, m):
    """Shapes at which a stacked BLAS product is *not* its per-block products.

    OpenBLAS sends a small operand (a 64-row block against 100+ training
    points) down its small-matrix kernel and the tall stack of the same
    blocks down the blocked one, and the two round differently — in the
    variance projection, and for multi-dimensional inputs in the kernel's
    own cross term.  The armed window therefore takes every BLAS product
    per tuple, with the scalar call's operand shapes.
    """
    udf = reference_function(function, simulated_eval_time=0.0)
    emulator = GPEmulator(udf)
    emulator.train_initial(n_training, random_state=np.random.default_rng(31))
    gp = emulator.gp
    rng = np.random.default_rng(4)
    sample_sets = [d.sample(m, random_state=rng) for d in input_stream(
        workload_for_udf(udf), 8, random_state=rng)]
    cache = BatchKernelCache(gp, sample_sets)
    window = cache.arm(gp, 0, quiet=7)
    assert len(window) == (8 if stacking_supported() else 1)
    engine = LocalInferenceEngine(
        gamma_threshold=DEFAULT_GAMMA_FRACTION * float(np.ptp(gp.y_train))
    )
    blocks = [
        engine.predict_cached_block(gp, cache, window),
        global_inference_cached_block(gp, cache, window),
    ]
    for i in window:
        fresh = BatchKernelCache(gp, sample_sets)
        singles = [engine.predict_cached(gp, fresh, i), global_inference_cached(gp, fresh, i)]
        for block, single in zip(blocks, singles):
            assert np.array_equal(block[i].means, single.means), i
            assert np.array_equal(block[i].stds, single.stds), i


# ---------------------------------------------------------------------------
# Guards: the differential above must not pass vacuously
# ---------------------------------------------------------------------------

def test_workload_encodability_matches_intent():
    """The 1-D streams really pack into columns and the 2-D stream really
    does not — otherwise the per-tuple-draw rows of the matrix test nothing."""
    for workload, encodable in [
        ("gaussian-1d", True),
        ("gamma-1d", True),
        ("joint-2d", False),
    ]:
        _, _, dists = _fixture(workload)
        assert (attempt_encode(dists) is not None) is encodable, workload


def _spy_on_arm(monkeypatch):
    """Record ``(start, quiet, window)`` of every window the cache arms."""
    arms = []
    real_arm = BatchKernelCache.arm

    def spy_arm(self, gp, start, quiet):
        window = real_arm(self, gp, start, quiet)
        arms.append((start, quiet, window))
        return window

    monkeypatch.setattr(BatchKernelCache, "arm", spy_arm)
    return arms


def test_a_warm_chunk_is_served_from_windows_longer_than_one(monkeypatch):
    """On a platform with exact stacking, the encodable workload must draw
    through the stacked sampler and, once the model is quiet, take its first
    pass from windows of several tuples — not silently run per tuple."""
    if not stacking_supported():
        pytest.skip("platform fails the stacking identity probes")
    draws = []
    real_draw = columns.sample_stacked

    def spy_draw(column, size, rng):
        draws.append(len(column))
        return real_draw(column, size, rng)

    monkeypatch.setattr(columns, "sample_stacked", spy_draw)
    arms = _spy_on_arm(monkeypatch)
    udf, engine, dists = _fixture("gaussian-1d")
    ExecutionPlan(batch_size=4).resolve(engine).compute_batch(udf, dists)
    assert draws == [4, 4, 2]
    assert max(len(window) for _, _, window in arms) > 1


# ---------------------------------------------------------------------------
# The window is sized from what the commit loop observes
# ---------------------------------------------------------------------------

def test_the_cache_never_holds_more_rows_than_the_window_cap(monkeypatch):
    """At the sample count the accuracy contract derives for ε = 0.12
    (m = 1239) stacking a 32-tuple chunk loses to the per-tuple loop and
    inflates the resident set, so the armed window is bounded by stacked
    rows — whatever the chunk size."""
    held = []
    real_rows = BatchKernelCache.rows

    def spy_rows(self, gp, i):
        block = real_rows(self, gp, i)
        held.append(max(a.shape[0] for a in vars(self).values() if isinstance(a, np.ndarray)))
        return block

    monkeypatch.setattr(BatchKernelCache, "rows", spy_rows)
    udf = reference_function("F1", simulated_eval_time=0.0)
    engine = UDFExecutionEngine(
        "gp", requirement=AccuracyRequirement(epsilon=0.12, delta=0.05), random_state=5
    )
    stream = list(input_stream(workload_for_udf(udf), 96, random_state=np.random.default_rng(6)))
    plan = ExecutionPlan(batch_size=32)
    engine.compute_with_plan(udf, stream[:64], plan)  # warm the model up
    assert engine.olgapro_for(udf).mc_samples() == 1239
    del held[:]
    engine.compute_with_plan(udf, stream[64:], plan)
    assert held and max(held) <= local_inference._WINDOW_ROWS < 32 * 1239


def test_the_window_collapses_when_the_model_moves_and_regrows_per_quiet_commit(monkeypatch):
    """A window is one tuple right after a commit that moved the model and
    one tuple longer per quiet commit since — across chunk boundaries too —
    so a refining stream never stacks rows a commit is about to invalidate."""
    if not stacking_supported():
        pytest.skip("platform fails the stacking identity probes")
    from repro.core.olgapro import OLGAPRO

    arms = _spy_on_arm(monkeypatch)
    udf = high_dimensional_function(1, simulated_eval_time=0.0)
    processor = OLGAPRO(udf, requirement=REQUIREMENT, n_samples=64, random_state=3)
    stream = list(input_stream(workload_for_udf(udf), 48, random_state=np.random.default_rng(8)))
    moved, expected_quiet, lengths = [], {}, {}
    for offset in (0, 16, 32):
        results = processor.process_batch(stream[offset : offset + 16])
        for start, quiet, window in arms:
            expected_quiet[offset + start] = quiet
            lengths[offset + start] = (len(window), 16 - start)
        del arms[:]
        moved += [result.points_added > 0 or result.retrained for result in results]
    assert any(moved) and not all(moved)
    cap = local_inference._WINDOW_ROWS // 64
    for g, quiet in expected_quiet.items():
        run = 0
        while run < g and not moved[g - 1 - run]:
            run += 1
        assert quiet == run, g
        length, remaining = lengths[g]
        assert length == min(1 + quiet, remaining, cap), g
    assert max(length for length, _ in lengths.values()) > 2


@pytest.mark.parametrize("n_samples", [None, 64], ids=["contract-m", "m64"])
def test_a_cold_chunk_recomputes_no_window_it_already_discarded(n_samples, monkeypatch):
    """On a cold model every commit moves the model.  The first pass then
    costs what the per-tuple reference pays — one inference per tuple, plus
    one per retrain — not a recomputed chunk tail per commit; at a small
    sample count a window can lose at most the quiet commits that grew it."""
    from repro.core.olgapro import OLGAPRO

    inferred = []
    real_one = LocalInferenceEngine.predict_cached
    real_block = LocalInferenceEngine.predict_cached_block

    def spy_one(self, gp, cache, i):
        inferred.append(1)
        return real_one(self, gp, cache, i)

    def spy_block(self, gp, cache, indices):
        inferred.append(len(indices))
        return real_block(self, gp, cache, indices)

    monkeypatch.setattr(LocalInferenceEngine, "predict_cached", spy_one)
    monkeypatch.setattr(LocalInferenceEngine, "predict_cached_block", spy_block)
    udf = reference_function("F3", simulated_eval_time=0.0)
    processor = OLGAPRO(
        udf,
        requirement=AccuracyRequirement(epsilon=0.15, delta=0.05),
        n_samples=n_samples,
        random_state=2,
    )
    stream = list(input_stream(workload_for_udf(udf), 16, random_state=np.random.default_rng(9)))
    results = processor.process_batch(stream)
    reference = len(results) + sum(result.retrained for result in results)
    quiet_commits = sum(not (r.points_added or r.retrained) for r in results)
    if n_samples is None:
        assert processor.mc_samples() == 793
        assert sum(inferred) == reference
    else:
        assert reference <= sum(inferred) <= reference + quiet_commits
