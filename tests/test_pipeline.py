"""Cross-tuple pipelined refinement: identity, determinism, and the seams.

Contracts under test (see :mod:`repro.engine.pipeline`):

* ``pipeline_lookahead=1`` (no stage attached) is bit-identical to the
  serial batched path under the same seed;
* at any ``lookahead > 1`` the committed trajectory — outputs, bounds, GP
  state, per-tuple consumed calls — is bit-identical to lookahead 1 at the
  same window: prefetching changes who pays for an evaluation, never the
  result;
* runs are repeatable under a fixed seed, with deterministic total charge
  counts, and invariant to completion order (point-hashed latency jitter);
* degenerate inputs (empty batches) return cleanly with zero-phase
  timings;
* the knob composes through ``Query`` / ``compute_with_plan`` /
  ``ParallelExecutor``, including the ``merge="shared"``
  fence/rollback interaction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.engine import (
    ExecutionPlan,
    Query,
    UDFExecutionEngine,
    generate_galaxy_relation,
)
from repro.exceptions import QueryError
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)


def _emulator_of(engine, udf):
    """The GP emulator behind ``udf``'s processor, or ``None`` (mc / cold)."""
    olgapro = engine.olgapro_for(udf, create=False)
    return None if olgapro is None else olgapro.emulator


def _fixture(
    n_tuples=8,
    seed=31,
    stream_seed=4,
    n_samples=200,
    real_eval_time=0.0,
    real_eval_jitter=0.0,
    function_name="F1",
    **engine_kwargs,
):
    """Fresh (udf, engine, distributions) triple with deterministic seeds."""
    udf = reference_function(
        function_name,
        simulated_eval_time=1e-3,
        real_eval_time=real_eval_time,
        real_eval_jitter=real_eval_jitter,
    )
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=seed,
        n_samples=n_samples, **engine_kwargs,
    )
    dists = list(
        input_stream(
            workload_for_udf(udf), n_tuples, random_state=np.random.default_rng(stream_seed)
        )
    )
    return udf, engine, dists


def _assert_identical_outputs(a_outputs, b_outputs):
    """Bitwise comparison of output distributions and claimed error bounds."""
    assert len(a_outputs) == len(b_outputs)
    for i, (a, b) in enumerate(zip(a_outputs, b_outputs)):
        assert np.array_equal(a.distribution.samples, b.distribution.samples), i
        assert a.error_bound == b.error_bound, i


def _gp_state(engine, udf):
    """Fingerprint of the model state after a run (or None when cold)."""
    emulator = _emulator_of(engine, udf)
    if emulator is None:
        return None
    gp = emulator.gp
    return (gp.X_train.tobytes(), gp.y_train.tobytes(), gp.kernel.theta.tobytes())


# ---------------------------------------------------------------------------
# Identity contracts
# ---------------------------------------------------------------------------

def test_lookahead_1_is_bit_identical_to_serial_batched():
    udf_a, engine_a, dists_a = _fixture()
    serial = ExecutionPlan(batch_size=4).resolve(engine_a).compute_batch(udf_a, dists_a)
    udf_b, engine_b, dists_b = _fixture()
    piped = ExecutionPlan(pipeline_lookahead=1, batch_size=4).resolve(engine_b).compute_batch(
        udf_b, dists_b
    )
    _assert_identical_outputs(serial, piped)
    assert udf_a.call_count == udf_b.call_count
    assert _gp_state(engine_a, udf_a) == _gp_state(engine_b, udf_b)


@pytest.mark.parametrize("lookahead", [2, 3])
def test_pipelined_trajectory_matches_async_at_same_window(lookahead):
    udf_a, engine_a, dists_a = _fixture()
    asynced = ExecutionPlan(async_inflight=4, batch_size=4).resolve(engine_a).compute_batch(
        udf_a, dists_a
    )
    udf_b, engine_b, dists_b = _fixture()
    executor = ExecutionPlan(
        pipeline_lookahead=lookahead, async_inflight=4, batch_size=4
    ).resolve(engine_b)
    piped = executor.compute_batch(udf_b, dists_b)
    _assert_identical_outputs(asynced, piped)
    assert _gp_state(engine_a, udf_a) == _gp_state(engine_b, udf_b)
    # Per-tuple consumed calls match the async accounting; the pipeline's
    # extra speculative charges appear only in the UDF total and the
    # executor's waste gauge.  The total can also come in *under*
    # async + waste: the pool dedupes points that distinct tuples both
    # evaluate, which the async path pays for twice.
    assert [a.udf_calls for a in asynced] == [b.udf_calls for b in piped]
    assert udf_b.call_count <= udf_a.call_count + executor.last_wasted_calls


def test_pipelined_run_is_repeatable_with_deterministic_charges():
    def run():
        udf, engine, dists = _fixture()
        executor = ExecutionPlan(pipeline_lookahead=3, async_inflight=4, batch_size=4).resolve(engine)
        outputs = executor.compute_batch(udf, dists)
        return outputs, udf.call_count, executor

    outputs_a, calls_a, executor_a = run()
    outputs_b, calls_b, executor_b = run()
    _assert_identical_outputs(outputs_a, outputs_b)
    # Total charges are deterministic (the pool dedupes the union of
    # requested keys); the prefetched/wasted gauges are diagnostics whose
    # attribution of a contested key (walk and commit racing to submit it)
    # may vary by a hair, so they are only sanity-bounded here.
    assert calls_a == calls_b
    for executor in (executor_a, executor_b):
        assert 0 <= executor.last_wasted_calls <= executor.last_speculative_calls


@pytest.mark.parametrize(
    "function_name, n_tuples, lookahead, n_samples",
    [("F1", 4, 3, 120), ("F4", 8, 4, 200)],
    ids=["F1", "F4"],
)
def test_completion_order_invariance_under_latency_jitter(
    function_name, n_tuples, lookahead, n_samples
):
    """Point-hashed latency jitter permutes completion order, not results.

    F1 converges after a few refining tuples; F4 refines deeply on every
    tuple, so its walks run to their depth and a window overshoots and
    rolls back — all under reordered completions.
    """
    def run(jitter):
        udf, engine, dists = _fixture(
            n_tuples=n_tuples, real_eval_time=2e-3, real_eval_jitter=jitter,
            n_samples=n_samples, function_name=function_name,
        )
        outputs = ExecutionPlan(
            pipeline_lookahead=lookahead, async_inflight=4, batch_size=n_tuples
        ).resolve(engine).compute_batch(udf, dists)
        return outputs, udf.call_count

    smooth, calls_smooth = run(0.0)
    jittered, calls_jittered = run(0.9)
    _assert_identical_outputs(smooth, jittered)
    assert calls_smooth == calls_jittered


def test_window_accounting_under_a_stage_matches_the_unstaged_window():
    """Per-tuple udf_calls stays exact when a window rolls back.

    On F4 the windows run deep and overshooting slices roll back; a
    rolled-back slice still *paid* for its evaluations, so the stage's
    consumed counter must report the unstaged window's per-tuple call-count
    deltas — not the committed ``points_added``.
    """
    udf_a, engine_a, dists_a = _fixture(function_name="F4")
    plan = ExecutionPlan(async_inflight=4, batch_size=4)
    unstaged = plan.resolve(engine_a).compute_batch(udf_a, dists_a)
    udf_b, engine_b, dists_b = _fixture(function_name="F4")
    executor = plan.with_overrides(pipeline_lookahead=3).resolve(engine_b)
    piped = executor.compute_batch(udf_b, dists_b)
    _assert_identical_outputs(unstaged, piped)
    assert [a.udf_calls for a in unstaged] == [b.udf_calls for b in piped]
    # Commits reuse prefetched evaluations, so the total never exceeds the
    # unstaged calls plus the (deterministic) speculative waste.
    assert udf_b.call_count <= udf_a.call_count + executor.last_wasted_calls


def test_the_stage_hands_the_commit_loop_only_values(monkeypatch):
    """Every tuple's inferences run on the commit thread, at any lookahead.

    A warm F1 stream in one chunk: the first tuples refine, the rest commit
    on their first pass.  The stage prefetches UDF values and nothing else,
    so the commit loop runs exactly as many per-tuple inference steps at
    lookahead 4 as at lookahead 1 — including every first pass of the quiet
    tail — and commits the same outputs.
    """
    from repro.core.olgapro import OLGAPRO

    calls = []
    real_step = OLGAPRO._infer_and_bound

    def counting_step(self, samples, box):
        calls.append(1)
        return real_step(self, samples, box)

    monkeypatch.setattr(OLGAPRO, "_infer_and_bound", counting_step)

    def run(lookahead):
        calls.clear()
        udf, engine, dists = _fixture(n_tuples=40)
        outputs = ExecutionPlan(
            pipeline_lookahead=lookahead, async_inflight=4, batch_size=40
        ).resolve(engine).compute_batch(udf, dists)
        return outputs, len(calls)

    unstaged, steps_unstaged = run(1)
    staged, steps_staged = run(4)
    _assert_identical_outputs(unstaged, staged)
    assert steps_staged == steps_unstaged
    assert steps_unstaged > 40  # some tuples refined, and every tuple had a first pass


def test_a_quiet_stream_walks_nothing(monkeypatch):
    """A walk's depth follows the committed tuples' recent depth.

    A warm F1 stream in one chunk: after the first tuples refine, the last
    8 commits add no points, and a walk submitted then would only pay for
    prefetches no tuple consumes — so none starts.
    """
    from repro.engine.pipeline import SpeculationStage

    submits = []
    real_submit = SpeculationStage._submit

    def recording_submit(self, j):
        tail = list(self._recent_depths[-8:])
        walks_before = len(self._walks)
        real_submit(self, j)
        submits.append((tail, len(self._walks) > walks_before))

    monkeypatch.setattr(SpeculationStage, "_submit", recording_submit)
    udf, engine, dists = _fixture(n_tuples=40)
    ExecutionPlan(pipeline_lookahead=4, async_inflight=4, batch_size=40).resolve(
        engine
    ).compute_batch(udf, dists)
    quiet = [started for tail, started in submits if tail and not any(tail)]
    assert quiet  # the stream did go quiet
    assert not any(quiet)
    # The cold start still walks.
    assert submits[0] == ([], True)


def test_a_single_refinement_point_is_claimed_through_the_pool(monkeypatch):
    """At window 1 under a stage, the window-1 driver carries every single
    refinement point through the chunk's value pool (a prefetched one is
    reused, a fresh one deduplicated against in-flight speculation)."""
    from repro.engine.pipeline import SpeculativeValuePool

    claims = []
    real_fetch = SpeculativeValuePool.fetch

    def counting_fetch(self, x):
        claims.append(np.array(x))
        return real_fetch(self, x)

    monkeypatch.setattr(SpeculativeValuePool, "fetch", counting_fetch)
    udf, engine, dists = _fixture(function_name="F4")
    ExecutionPlan(pipeline_lookahead=2, async_inflight=1, batch_size=4).resolve(
        engine
    ).compute_batch(udf, dists)
    olgapro = engine.olgapro_for(udf)
    assert olgapro.refinement_evaluations > 0
    assert len(claims) == olgapro.refinement_evaluations


def test_mc_strategy_delegates_to_the_batched_path():
    def run(lookahead):
        udf = reference_function("F1", simulated_eval_time=1e-3)
        engine = UDFExecutionEngine(strategy="mc", requirement=REQUIREMENT, random_state=11)
        dists = list(
            input_stream(workload_for_udf(udf), 5, random_state=np.random.default_rng(2))
        )
        if lookahead is None:
            return ExecutionPlan(batch_size=3).resolve(engine).compute_batch(udf, dists)
        return ExecutionPlan(pipeline_lookahead=lookahead, batch_size=3).resolve(engine).compute_batch(
            udf, dists
        )

    _assert_identical_outputs(run(None), run(4))


def test_predicate_path_matches_async_predicate_path():
    from repro.core.filtering import SelectionPredicate

    predicate = SelectionPredicate(low=0.0, high=1.5, threshold=0.1)
    udf_a, engine_a, dists_a = _fixture(stream_seed=9)
    asynced = ExecutionPlan(
        async_inflight=4, batch_size=3
    ).resolve(engine_a).compute_batch_with_predicate(udf_a, dists_a, predicate)
    udf_b, engine_b, dists_b = _fixture(stream_seed=9)
    piped = ExecutionPlan(
        pipeline_lookahead=4, async_inflight=4, batch_size=3
    ).resolve(engine_b).compute_batch_with_predicate(udf_b, dists_b, predicate)
    assert len(asynced) == len(piped)
    for a, b in zip(asynced, piped):
        assert a.dropped == b.dropped
        if a.distribution is not None:
            assert np.array_equal(a.distribution.samples, b.distribution.samples)


def test_lookahead_4_predicate_query_commits_what_lookahead_1_commits():
    """The stage no longer stands down for a predicate: it speculates and
    prefetches, and the drop test reads the same committed envelopes."""
    from repro.core.filtering import SelectionPredicate

    predicate = SelectionPredicate(low=0.0, high=1.5, threshold=0.3)
    runs = {}
    for lookahead in (1, 4):
        udf, engine, dists = _fixture(stream_seed=9)
        executor = ExecutionPlan(
            pipeline_lookahead=lookahead, async_inflight=4, batch_size=4
        ).resolve(engine)
        outputs = executor.compute_batch_with_predicate(udf, dists, predicate)
        runs[lookahead] = (outputs, _gp_state(engine, udf), executor)
    (serial, state_1, _), (piped, state_4, executor) = runs[1], runs[4]
    assert executor.last_speculative_calls > 0
    assert state_1 == state_4
    dropped = [output.dropped for output in serial]
    assert any(dropped) and not all(dropped)
    for i, (a, b) in enumerate(zip(serial, piped)):
        assert (a.dropped, a.existence_probability) == (b.dropped, b.existence_probability), i
        assert a.error_bound == b.error_bound, i
        assert a.udf_calls == b.udf_calls, i
        if not a.dropped:
            assert np.array_equal(a.distribution.samples, b.distribution.samples), i


def test_predicate_path_defaults_to_async_window_at_deep_lookahead():
    """lookahead>1 with inflight unset keeps within-tuple overlap engaged.

    The user opted into pipelining, so a predicate query commits what the
    async executor commits at the scheduler's default window — not what
    the serial path commits.
    """
    from repro.core.filtering import SelectionPredicate
    from repro.engine import DEFAULT_ASYNC_INFLIGHT

    predicate = SelectionPredicate(low=0.0, high=1.5, threshold=0.1)
    udf_a, engine_a, dists_a = _fixture(stream_seed=9)
    asynced = ExecutionPlan(
        async_inflight=DEFAULT_ASYNC_INFLIGHT, batch_size=3
    ).resolve(engine_a).compute_batch_with_predicate(udf_a, dists_a, predicate)
    udf_b, engine_b, dists_b = _fixture(stream_seed=9)
    piped = ExecutionPlan(
        pipeline_lookahead=4, batch_size=3
    ).resolve(engine_b).compute_batch_with_predicate(udf_b, dists_b, predicate)
    assert len(asynced) == len(piped)
    for a, b in zip(asynced, piped):
        assert a.dropped == b.dropped
        if a.distribution is not None:
            assert np.array_equal(a.distribution.samples, b.distribution.samples)


# ---------------------------------------------------------------------------
# Degenerate inputs
# ---------------------------------------------------------------------------

def test_empty_batch_returns_empty_with_zero_phase_timings():
    udf, engine, _ = _fixture()
    executor = ExecutionPlan(pipeline_lookahead=4, async_inflight=4).resolve(engine)
    assert executor.compute_batch(udf, []) == []
    for phase in ("sampling", "inference", "refinement"):
        assert phase in executor.timings.seconds
        assert executor.timings.get(phase) == 0.0
    assert executor.last_speculative_calls == 0
    assert executor.last_wasted_calls == 0


def test_single_tuple_batch_runs_pipelined():
    udf, engine, dists = _fixture(n_tuples=1)
    outputs = ExecutionPlan(pipeline_lookahead=4, async_inflight=4).resolve(engine).compute_batch(
        udf, dists[:1]
    )
    assert len(outputs) == 1
    assert outputs[0].distribution.samples.size > 0


def test_nested_pipelined_execution_is_rejected():
    udf, engine, dists = _fixture(n_tuples=2)
    executor = ExecutionPlan(pipeline_lookahead=2, async_inflight=4, batch_size=2).resolve(engine)
    olgapro = engine.olgapro_for(udf)
    olgapro.evaluation_driver = object()
    try:
        with pytest.raises(QueryError, match="driver"):
            executor.compute_batch(udf, dists)
    finally:
        olgapro.evaluation_driver = None


# ---------------------------------------------------------------------------
# Plumbing: engine, query builder, parallel composition
# ---------------------------------------------------------------------------

def test_query_pipeline_lookahead_1_matches_batched():
    def run(pipeline_lookahead):
        relation = generate_galaxy_relation(6, random_state=21)
        udf = reference_function("F1", simulated_eval_time=1e-4)
        engine = UDFExecutionEngine(
            strategy="gp", requirement=REQUIREMENT, random_state=13, n_samples=150
        )
        return (
            Query(relation)
            .apply_udf(udf, ["ra_offset", "dec_offset"], alias="f",
                       plan=ExecutionPlan(batch_size=3, pipeline_lookahead=pipeline_lookahead))
            .run(engine)
        )

    batched = run(None)
    piped = run(1)
    assert len(batched) == len(piped)
    for a, b in zip(batched, piped):
        assert np.array_equal(a["f"].samples, b["f"].samples)


def test_query_pipeline_lookahead_runs_and_is_deterministic():
    def run():
        relation = generate_galaxy_relation(6, random_state=22)
        udf = reference_function("F1", simulated_eval_time=1e-4)
        engine = UDFExecutionEngine(
            strategy="gp", requirement=REQUIREMENT, random_state=5, n_samples=150
        )
        return (
            Query(relation)
            .apply_udf(udf, ["ra_offset", "dec_offset"], alias="f",
                       plan=ExecutionPlan(batch_size=6, pipeline_lookahead=3, async_inflight=4))
            .run(engine)
        )

    a, b = run(), run()
    assert len(a) == len(b) == 6
    for ra, rb in zip(a, b):
        assert np.array_equal(ra["f"].samples, rb["f"].samples)


def test_parallel_workers_1_with_pipeline_matches_pipelined_executor():
    udf_a, engine_a, dists_a = _fixture()
    direct = ExecutionPlan(
        pipeline_lookahead=3, async_inflight=4, batch_size=4
    ).resolve(engine_a).compute_batch(udf_a, dists_a)
    udf_b, engine_b, dists_b = _fixture()
    sharded = ExecutionPlan(
        workers=1, batch_size=4, async_inflight=4, pipeline_lookahead=3
    ).resolve(engine_b).compute_batch(udf_b, dists_b)
    _assert_identical_outputs(direct, sharded)


def test_parallel_shards_honor_pipeline_lookahead():
    def sharded(workers):
        udf, engine, dists = _fixture(n_tuples=8)
        executor = ExecutionPlan(
            workers=workers, batch_size=4, parallel_seed=17,
            async_inflight=4, pipeline_lookahead=3,
        ).resolve(engine)
        return executor.compute_batch(udf, dists)

    # Worker-count invariance must survive the composed pipelined shards.
    _assert_identical_outputs(sharded(2), sharded(4))


# ---------------------------------------------------------------------------
# Fence / merge interaction (shared)
# ---------------------------------------------------------------------------

def test_shared_merge_counts_pipelined_worker_points_once():
    """Stale-fence re-inference must not double-absorb into the parent.

    Every worker runs the lookahead stage, whose walks absorb points into
    *private* views.  Only the points genuinely committed to the worker's
    live model may flow back through the ``"shared"`` store — so the
    parent's merged-point count must equal its model growth exactly, with
    no duplicates.
    """
    udf, engine, dists = _fixture(n_tuples=8)
    executor = ExecutionPlan(
        workers=2, batch_size=4, merge="shared", parallel_seed=5,
        async_inflight=4, pipeline_lookahead=3,
    ).resolve(engine)
    executor.compute_batch(udf, dists)
    emulator = _emulator_of(engine, udf)
    assert emulator is not None
    # Merged points == parent model growth (the parent started cold).
    assert emulator.n_training == executor.last_merged_points
    # No row entered the parent model twice.
    X = emulator.gp.X_train
    assert len({row.tobytes() for row in X}) == X.shape[0]


def test_shared_serial_pipeline_does_not_double_count_points():
    """workers=1 + pipeline: model growth equals the merged-point count."""
    udf, engine, dists = _fixture(n_tuples=6)
    executor = ExecutionPlan(
        workers=1, batch_size=3, merge="shared", async_inflight=4, pipeline_lookahead=3
    ).resolve(engine)
    executor.compute_batch(udf, dists)
    emulator = _emulator_of(engine, udf)
    assert emulator.n_training == executor.last_merged_points
