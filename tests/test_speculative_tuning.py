"""The refinement-window loop: savings, rollback, snapshots, equivalences.

The headline contract (asserted with the GP's operation counter): on the
online-tuning workload, ``speculative_k = 4`` cuts the refinement loop's
factorization count by at least 2x versus the serial one-point loop, while
meeting the same error budget.  The loop exists once
(:meth:`OLGAPRO._tune_until_bounded`): the equivalence tests at the bottom
pin each of its cases to the trajectory the pre-unification loops produced.
"""

from __future__ import annotations

from concurrent.futures import Future
from functools import partial

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.core.olgapro import OLGAPRO
from repro.core.online_tuning import make_strategy
from repro.exceptions import GPError
from repro.gp.kernels import SquaredExponential
from repro.gp.regression import GaussianProcess
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.2, delta=0.05)


def _run_stream(speculative_k, n_tuples=12, **kwargs):
    udf = reference_function("F4", simulated_eval_time=1e-3)
    processor = OLGAPRO(
        udf,
        requirement=REQUIREMENT,
        random_state=42,
        n_samples=300,
        max_points_per_tuple=60,
        initial_training_points=10,
        speculative_k=speculative_k,
        **kwargs,
    )
    dists = list(
        input_stream(workload_for_udf(udf), n_tuples, random_state=np.random.default_rng(3))
    )
    results = [processor.process(dist) for dist in dists]
    return processor, results


# ---------------------------------------------------------------------------
# Headline: factorization savings at the same error budget
# ---------------------------------------------------------------------------

def test_speculative_halves_refinement_factorizations():
    serial, serial_results = _run_stream(speculative_k=1)
    speculative, speculative_results = _run_stream(speculative_k=4)

    # The workload must actually exercise refinement for this to mean anything.
    assert serial.refinement_factorizations > 20
    # >= 2x fewer factorization-grade operations in the refinement loop.
    assert speculative.refinement_factorizations * 2 <= serial.refinement_factorizations

    # Same error budget: every converged tuple reports a bound within budget
    # (modulo tuples whose post-tuple hyperparameter retrain re-computed the
    # bound under a new kernel — identical behaviour in both modes), and
    # speculation converges at least as many tuples as the serial loop does.
    budget = serial.budget.epsilon_gp
    for results in (serial_results, speculative_results):
        for result in results:
            if result.converged and not result.retrained:
                assert result.error_bound.epsilon_gp <= budget + 1e-12
    assert sum(r.converged for r in speculative_results) >= sum(
        r.converged for r in serial_results
    )


def test_speculative_uses_blocked_updates():
    speculative, _ = _run_stream(speculative_k=4, n_tuples=6)
    counts = speculative.emulator.gp.op_counts
    assert counts["block_update"] > 0
    # Blocked updates dominate rank-1 updates in the speculative loop (rank-1
    # only appears for capacity-1 iterations and rollback fallbacks).
    assert counts["block_update"] >= counts["rank1_update"]


def test_speculative_block_never_duplicates_a_sample_row():
    """Empirical inputs resample their support with replacement, so the MC
    sample matrix contains exact-duplicate rows; the top-k block must pick
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
    processor = OLGAPRO(udf, requirement=REQUIREMENT, random_state=5, n_samples=200,
                        max_points_per_tuple=40, initial_training_points=8,
                        speculative_k=4)
    # Duplicates must actually be present for the guard to be exercised.
    probe = dist.sample(200, random_state=np.random.default_rng(5))
    assert len({row.tobytes() for row in probe}) < probe.shape[0]
    result = processor.process(dist)
    assert result.points_added > 0
    X = processor.emulator.gp.X_train
    assert len({row.tobytes() for row in X}) == X.shape[0]


def test_speculative_k_validation():
    udf = reference_function("F1")
    with pytest.raises(GPError):
        OLGAPRO(udf, speculative_k=0)
    # The speculative loop fixes the selection rule; a custom strategy would
    # silently become a no-op, so the combination is rejected outright.
    from repro.core.online_tuning import RandomStrategy

    with pytest.raises(GPError, match="tuning_strategy"):
        OLGAPRO(udf, speculative_k=4, tuning_strategy=RandomStrategy())


# ---------------------------------------------------------------------------
# Rollback: an overshooting block is undone via the snapshot
# ---------------------------------------------------------------------------

def test_rollback_commits_single_point_when_bound_worsens(monkeypatch):
    udf = reference_function("F4", simulated_eval_time=1e-3)
    processor = OLGAPRO(
        udf,
        requirement=REQUIREMENT,
        random_state=7,
        n_samples=200,
        max_points_per_tuple=30,
        initial_training_points=8,
        speculative_k=4,
    )
    dist = next(
        iter(input_stream(workload_for_udf(udf), 1, random_state=np.random.default_rng(1)))
    )

    # Force the bound re-check after the first speculative block to come out
    # strictly worse, so the rollback branch runs; afterwards report the true
    # bound so the loop terminates normally.  (Call #1 computes the loop's
    # initial bound, call #2 is the re-check right after the first block.)
    real_bound_from_inference = processor._bound_from_inference
    state = {"calls": 0, "sabotaged": False}

    def sabotaged(inference, box, n_points):
        envelope, bound = real_bound_from_inference(inference, box, n_points)
        state["calls"] += 1
        if state["calls"] == 2 and not state["sabotaged"]:
            state["sabotaged"] = True
            return envelope, bound + 10.0
        return envelope, bound

    monkeypatch.setattr(processor, "_bound_from_inference", sabotaged)
    n_rollback_restores = {"n": 0}
    real_restore = processor.emulator.restore

    def counting_restore(snapshot):
        n_rollback_restores["n"] += 1
        real_restore(snapshot)

    monkeypatch.setattr(processor.emulator, "restore", counting_restore)

    result = processor.process(dist)
    assert state["sabotaged"], "the speculative block re-check was never reached"
    assert n_rollback_restores["n"] == 1
    # The run still completes and the model is consistent with its index.
    assert processor.emulator.n_training == len(processor.emulator.index)
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


def test_emulator_restore_rebuilds_index():
    udf = reference_function("F1")
    processor = OLGAPRO(udf, requirement=REQUIREMENT, random_state=3, n_samples=150,
                        initial_training_points=6)
    dist = next(
        iter(input_stream(workload_for_udf(udf), 1, random_state=np.random.default_rng(2)))
    )
    processor.process(dist)
    emulator = processor.emulator
    state = emulator.snapshot()
    n_before = emulator.n_training

    emulator.add_training_points(np.random.default_rng(5).uniform(0, 10, size=(4, 2)))
    assert len(emulator.index) == n_before + 4
    emulator.restore(state)
    assert emulator.n_training == n_before
    assert len(emulator.index) == n_before


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
    X = np.random.default_rng(8).uniform(0, 10, size=(3, 2))
    emulator.absorb_observations(X, np.array([1.0, 2.0, 3.0]))
    assert udf.call_count == calls_before
    assert emulator.n_training >= 3
    assert len(emulator.index) == emulator.n_training


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


class _OneSliceDriver:
    """The loop's driver seam at ``window`` with a single absorption slice."""

    def __init__(self, window):
        self.window = window

    @staticmethod
    def schedule(k):
        return ((0, k),)

    @staticmethod
    def submit(udf, X):
        futures = [Future() for _ in X]
        for future, value in zip(futures, udf.evaluate_batch(X)):
            future.set_result(value)
        return futures

    @staticmethod
    def drain(futures):
        assert all(future.done() for future in futures)


@pytest.mark.parametrize("batched", [False, True], ids=["per-tuple", "batched"])
def test_speculative_k_is_the_window_loop_with_one_inline_slice(batched):
    def run(processor, dists):
        if batched:
            return processor.process_batch(dists)
        return [processor.process(dist) for dist in dists]

    inline, dists = _cold_f3(speculative_k=4)
    inline_results = run(inline, dists)
    driven, dists = _cold_f3()
    driven.evaluation_driver = _OneSliceDriver(4)
    driven_results = run(driven, dists)
    _assert_same_trajectory(inline, inline_results, driven, driven_results)
    assert inline.refinement_evaluations == driven.refinement_evaluations


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
