"""The refinement-window loop: savings, rollback, snapshots, equivalences.

The headline contract (asserted with the GP's operation counter): on the
online-tuning workload, a plan window of 4 (``async_inflight=4``) makes
fewer refinement factorizations than window 1 while meeting the same error
budget.  The loop exists once (:meth:`OLGAPRO._tune_until_bounded`): the
equivalence tests at the bottom pin each of its cases to the trajectory
the pre-unification loops produced.
"""

from __future__ import annotations

from concurrent.futures import Future
from functools import partial

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.core.olgapro import OLGAPRO
from repro.core.online_tuning import make_strategy
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.engine.async_exec import AsyncEvaluationDriver, chunk_schedule
from repro.gp.kernels import SquaredExponential
from repro.gp.regression import GaussianProcess
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.2, delta=0.05)


def _engine(udf, requirement=REQUIREMENT, random_state=42, **processor_kwargs):
    """A GP engine plus its processor for ``udf``, recording every tuple result.

    Returns ``(engine, processor, results)``; ``results`` fills with the
    :class:`~repro.core.olgapro.OnlineTupleResult` of every tuple the
    engine's chunks commit.
    """
    engine = UDFExecutionEngine(
        strategy="gp", requirement=requirement, random_state=random_state,
        **processor_kwargs,
    )
    processor = engine.olgapro_for(udf)
    results = []
    process_batch = processor.process_batch

    def recording(*args, **kwargs):
        chunk = process_batch(*args, **kwargs)
        results.extend(chunk)
        return chunk

    processor.process_batch = recording
    return engine, processor, results


def _run_stream(window, n_tuples=12):
    udf = reference_function("F4", simulated_eval_time=1e-3)
    engine, processor, results = _engine(
        udf, n_samples=300, max_points_per_tuple=60, initial_training_points=10
    )
    dists = list(
        input_stream(workload_for_udf(udf), n_tuples, random_state=np.random.default_rng(3))
    )
    engine.compute_with_plan(udf, dists, ExecutionPlan(async_inflight=window))
    return processor, results


# ---------------------------------------------------------------------------
# Headline: factorization savings at the same error budget
# ---------------------------------------------------------------------------

def test_a_window_of_4_makes_fewer_refinement_factorizations():
    serial, serial_results = _run_stream(window=1)
    windowed, windowed_results = _run_stream(window=4)

    # The workload must actually exercise refinement for this to mean anything.
    assert serial.refinement_factorizations > 20
    # Fewer factorization-grade operations in the refinement loop: each
    # multi-point slice is one blocked update and one bound re-check.
    assert windowed.refinement_factorizations < serial.refinement_factorizations

    # Same error budget: every converged tuple reports a bound within budget
    # (modulo tuples whose post-tuple hyperparameter retrain re-computed the
    # bound under a new kernel — identical behaviour at every window), and
    # the window converges at least as many tuples as the serial loop does.
    budget = serial.budget.epsilon_gp
    for results in (serial_results, windowed_results):
        assert len(results) == 12
        for result in results:
            if result.converged and not result.retrained:
                assert result.error_bound.epsilon_gp <= budget + 1e-12
    assert sum(r.converged for r in windowed_results) >= sum(
        r.converged for r in serial_results
    )


def test_a_window_uses_blocked_updates():
    serial, _ = _run_stream(window=1, n_tuples=6)
    windowed, _ = _run_stream(window=4, n_tuples=6)
    assert serial.emulator.gp.op_counts["block_update"] == 0
    counts = windowed.emulator.gp.op_counts
    # The schedule's multi-point slices absorb through blocked updates, so
    # the window needs fewer rank-1 updates than the one-point loop.
    assert counts["block_update"] > 0
    assert counts["rank1_update"] < serial.emulator.gp.op_counts["rank1_update"]


def test_a_window_never_duplicates_a_sample_row():
    """Empirical inputs resample their support with replacement, so the MC
    sample matrix contains exact-duplicate rows; the top-k window must pick
    distinct locations only (a duplicate would waste a UDF call and absorb a
    repeated row into the covariance)."""
    from repro.distributions.empirical import EmpiricalDistribution
    from repro.distributions.multivariate import IndependentJoint

    rng = np.random.default_rng(9)
    dist = IndependentJoint([
        EmpiricalDistribution(rng.uniform(3, 7, size=8)),
        EmpiricalDistribution(rng.uniform(3, 7, size=8)),
    ])
    udf = reference_function("F4", simulated_eval_time=1e-3)
    engine, processor, results = _engine(
        udf, random_state=5, n_samples=200, max_points_per_tuple=40, initial_training_points=8,
    )
    # Duplicates must actually be present for the guard to be exercised.
    probe = dist.sample(200, random_state=np.random.default_rng(5))
    assert len({row.tobytes() for row in probe}) < probe.shape[0]
    engine.compute_with_plan(udf, [dist], ExecutionPlan(async_inflight=4))
    assert results[0].points_added > 0
    X = processor.emulator.gp.X_train
    assert len({row.tobytes() for row in X}) == X.shape[0]


def test_the_plan_window_is_the_refinement_window(monkeypatch):
    """The plan's window is the only one: every refinement submission
    carries at most ``async_inflight`` rows, and full windows do occur."""
    submitted = []
    submit = AsyncEvaluationDriver.submit

    def recording(self, udf, X):
        submitted.append((self.window, len(X)))
        return submit(self, udf, X)

    monkeypatch.setattr(AsyncEvaluationDriver, "submit", recording)
    udf = reference_function("F4", simulated_eval_time=1e-3)
    engine, processor, results = _engine(
        udf, n_samples=300, max_points_per_tuple=60, initial_training_points=10
    )
    dists = list(
        input_stream(workload_for_udf(udf), 6, random_state=np.random.default_rng(3))
    )
    processor._ensure_initialized(dists[0], processor._rng)  # warm: no design to carry
    engine.compute_with_plan(udf, dists, ExecutionPlan(async_inflight=5))
    assert sum(result.points_added for result in results) > 0
    assert {window for window, _ in submitted} == {5}
    assert max(rows for _, rows in submitted) == 5


# ---------------------------------------------------------------------------
# Rollback: an overshooting slice is undone via the snapshot
# ---------------------------------------------------------------------------

def test_rollback_commits_single_point_when_bound_worsens(monkeypatch):
    udf = reference_function("F4", simulated_eval_time=1e-3)
    engine, processor, results = _engine(
        udf, random_state=7, n_samples=200, max_points_per_tuple=30, initial_training_points=8,
    )
    dist = next(
        iter(input_stream(workload_for_udf(udf), 1, random_state=np.random.default_rng(1)))
    )

    # Force the bound re-check right after the first multi-point slice to
    # come out strictly worse, so the rollback branch runs (single-point
    # slices are exempt); afterwards report the true bound so the loop
    # terminates normally.
    real_absorb = processor.emulator.absorb_observations
    real_bound_from_inference = processor._bound_from_inference
    state = {"armed": False, "sabotaged": False}

    def absorbing(X, y, fence=None):
        real_absorb(X, y, fence=fence)
        if len(X) > 1 and not state["sabotaged"]:
            state["armed"] = True

    def sabotaged(means, stds, box, n_points):
        envelope, bound = real_bound_from_inference(means, stds, box, n_points)
        if state["armed"]:
            state["armed"], state["sabotaged"] = False, True
            return envelope, bound + 10.0
        return envelope, bound

    monkeypatch.setattr(processor.emulator, "absorb_observations", absorbing)
    monkeypatch.setattr(processor, "_bound_from_inference", sabotaged)
    n_rollback_restores = {"n": 0}
    real_restore = processor.emulator.restore

    def counting_restore(snapshot):
        n_rollback_restores["n"] += 1
        real_restore(snapshot)

    monkeypatch.setattr(processor.emulator, "restore", counting_restore)

    engine.compute_with_plan(udf, [dist], ExecutionPlan(async_inflight=4))
    assert state["sabotaged"], "no multi-point slice re-check was reached"
    assert n_rollback_restores["n"] == 1
    # The run still completes, and the model holds exactly the design plus
    # the points the tuple reports (the rollback re-committed one of the
    # slice's points, not the slice).
    [result] = results
    assert processor.emulator.n_training == 8 + result.points_added
    assert result.distribution.size == 200


# ---------------------------------------------------------------------------
# GP / emulator snapshot machinery
# ---------------------------------------------------------------------------

def test_gp_snapshot_restore_roundtrip():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 10, size=(20, 2))
    y = np.sin(X[:, 0]) + np.cos(X[:, 1])
    gp = GaussianProcess(kernel=SquaredExponential())
    gp.fit(X, y)
    probe = rng.uniform(0, 10, size=(15, 2))
    mean_before, std_before = gp.predict(probe)
    state = gp.snapshot()

    extra = rng.uniform(0, 10, size=(5, 2))
    gp.add_points(extra, np.ones(5))
    assert gp.n_training == 25
    gp.restore(state)

    assert gp.n_training == 20
    mean_after, std_after = gp.predict(probe)
    assert np.array_equal(mean_before, mean_after)
    assert np.array_equal(std_before, std_after)


def test_gp_restore_does_not_reset_op_counts():
    rng = np.random.default_rng(1)
    gp = GaussianProcess(kernel=SquaredExponential())
    gp.fit(rng.uniform(0, 10, size=(10, 2)), rng.normal(size=10))
    state = gp.snapshot()
    gp.add_points(rng.uniform(0, 10, size=(3, 2)), rng.normal(size=3))
    ops = gp.factorization_count
    gp.restore(state)
    assert gp.factorization_count == ops


def test_absorb_observations_skips_udf_calls():
    udf = reference_function("F1")
    processor = OLGAPRO(udf, requirement=REQUIREMENT, random_state=3, n_samples=150,
                        initial_training_points=6)
    dist = next(
        iter(input_stream(workload_for_udf(udf), 1, random_state=np.random.default_rng(2)))
    )
    processor.process(dist)
    emulator = processor.emulator
    calls_before = udf.call_count
    n_before = emulator.n_training
    X = np.random.default_rng(8).uniform(0, 10, size=(3, 2))
    emulator.absorb_observations(X, np.array([1.0, 2.0, 3.0]))
    assert udf.call_count == calls_before
    assert emulator.n_training == n_before + 3


def test_emulator_restore_returns_the_training_rows():
    udf = reference_function("F1")
    processor = OLGAPRO(udf, requirement=REQUIREMENT, random_state=3, n_samples=150,
                        initial_training_points=6)
    dist = next(
        iter(input_stream(workload_for_udf(udf), 1, random_state=np.random.default_rng(2)))
    )
    processor.process(dist)
    emulator = processor.emulator
    state = emulator.snapshot()
    X_before, y_before = emulator.gp.X_train, emulator.gp.y_train

    emulator.add_training_points(np.random.default_rng(5).uniform(0, 10, size=(4, 2)))
    assert emulator.n_training == X_before.shape[0] + 4
    emulator.restore(state)
    assert np.array_equal(emulator.gp.X_train, X_before)
    assert np.array_equal(emulator.gp.y_train, y_before)


# ---------------------------------------------------------------------------
# One loop: each plan value is a case of it, bit for bit
# ---------------------------------------------------------------------------

def _cold_f3(**kwargs):
    """A cold processor plus an F3 stream whose first tuples all refine."""
    udf = reference_function("F3", simulated_eval_time=1e-3)
    processor = OLGAPRO(
        udf,
        requirement=AccuracyRequirement(epsilon=0.15, delta=0.05),
        random_state=31,
        n_samples=150,
        **kwargs,
    )
    dists = list(
        input_stream(workload_for_udf(udf), 6, random_state=np.random.default_rng(4))
    )
    return processor, dists


def _assert_same_trajectory(a, a_results, b, b_results):
    assert a.n_training > a.initial_training_points  # refinement really ran
    for ra, rb in zip(a_results, b_results):
        assert np.array_equal(ra.distribution.samples, rb.distribution.samples)
        assert ra.error_bound == rb.error_bound
        assert ra.points_added == rb.points_added
    assert np.array_equal(a.emulator.gp.X_train, b.emulator.gp.X_train)
    assert np.array_equal(a.emulator.gp.y_train, b.emulator.gp.y_train)
    # Same random-stream consumption: the generators ended in the same state.
    assert a._rng.bit_generator.state == b._rng.bit_generator.state


class _InlineDriver:
    """The loop's driver seam at ``window``, evaluating inline: no transport."""

    schedule = staticmethod(chunk_schedule)

    def __init__(self, window):
        self.window = window

    @staticmethod
    def submit(udf, X):
        futures = [Future() for _ in X]
        for future, value in zip(futures, udf.evaluate_batch(X)):
            future.set_result(value)
        return futures

    @staticmethod
    def drain(futures):
        assert all(future.done() for future in futures)


@pytest.mark.parametrize("batch_size", [1, 4], ids=["per-tuple", "batched"])
def test_a_window_is_the_same_loop_whatever_carries_it(batch_size):
    """``async_inflight=4`` through the engine's transport and a window-4
    driver evaluating inline commit the same trajectory: the carrier only
    decides where values come from, never which."""
    inline, dists = _cold_f3()
    inline.evaluation_driver = _InlineDriver(4)
    if batch_size == 1:
        inline_results = [inline.process(dist) for dist in dists]
    else:
        inline_results = inline.process_batch(dists)
    udf = reference_function("F3", simulated_eval_time=1e-3)
    engine, carried, carried_results = _engine(
        udf, requirement=AccuracyRequirement(epsilon=0.15, delta=0.05), random_state=31,
        n_samples=150,
    )
    engine.compute_with_plan(
        udf, dists, ExecutionPlan(async_inflight=4, batch_size=batch_size)
    )
    _assert_same_trajectory(inline, inline_results, carried, carried_results)
    assert inline.refinement_evaluations == carried.refinement_evaluations


def _pr13_serial_loop(olgapro, samples, box, rng, initial=None):
    """PR 13's ``_tune_serial``: selection inference recomputed every iteration."""
    _, envelope, bound = initial if initial is not None else olgapro._infer_and_bound(samples, box)
    points_added = 0
    while bound > olgapro.budget.epsilon_gp:
        if points_added >= olgapro.max_points_per_tuple:
            return envelope, bound, points_added, False
        if olgapro.emulator.n_training >= olgapro.max_training_points:
            return envelope, bound, points_added, False
        inference = olgapro._infer(samples, box)
        index = olgapro.tuning_strategy.select(
            samples, inference.means, inference.stds, random_state=rng,
            error_evaluator=olgapro._make_error_evaluator(samples, box),
        )
        olgapro.emulator.add_training_point(samples[index])
        points_added += 1
        _, envelope, bound = olgapro._infer_and_bound(samples, box)
    return envelope, bound, points_added, True


@pytest.mark.parametrize("batched", [False, True], ids=["per-tuple", "batched"])
@pytest.mark.parametrize(
    "strategy, options",
    [(None, {}), ("random", {}), ("optimal_greedy", {"max_candidates": 4})],
    ids=["largest-variance", "random", "optimal-greedy"],
)
def test_window_1_is_the_serial_trajectory(strategy, options, batched):
    def run(reference):
        kwargs = {}
        if strategy is not None:
            kwargs["tuning_strategy"] = make_strategy(strategy, **options)
        processor, dists = _cold_f3(**kwargs)
        if strategy == "optimal_greedy":
            dists = dists[:2]  # one simulated refit per candidate per iteration
        if reference:
            processor._tune_until_bounded = partial(_pr13_serial_loop, processor)
        if batched:
            return processor, processor.process_batch(dists)
        return processor, [processor.process(dist) for dist in dists]

    _assert_same_trajectory(*run(reference=False), *run(reference=True))
