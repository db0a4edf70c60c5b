"""Unit and behavioural tests for OLGAPRO (Algorithm 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.core.filtering import SelectionPredicate
from repro.core.metrics import lambda_discrepancy
from repro.core.olgapro import OLGAPRO
from repro.core.online_tuning import RandomStrategy
from repro.core.retraining import EagerRetrain, NeverRetrain
from repro.distributions.continuous import Gaussian
from repro.exceptions import GPError
from repro.workloads.generators import true_output_distribution


def small_processor(udf, epsilon=0.15, **kwargs):
    """OLGAPRO with a reduced sample count so tests stay fast."""
    defaults = dict(
        requirement=AccuracyRequirement(epsilon=epsilon, delta=0.05),
        initial_training_points=6,
        n_samples=400,
        random_state=0,
    )
    defaults.update(kwargs)
    return OLGAPRO(udf, **defaults)


class TestConfiguration:
    def test_invalid_initial_points(self, quadratic_udf):
        with pytest.raises(GPError):
            OLGAPRO(quadratic_udf, initial_training_points=1)

    def test_invalid_max_points(self, quadratic_udf):
        with pytest.raises(GPError):
            OLGAPRO(quadratic_udf, max_points_per_tuple=0)

    def test_sample_override(self, quadratic_udf):
        processor = small_processor(quadratic_udf.with_simulated_eval_time(0.0), n_samples=123)
        assert processor.mc_samples() == 123

    def test_budget_samples_without_override(self, quadratic_udf):
        processor = OLGAPRO(quadratic_udf, AccuracyRequirement(epsilon=0.1, delta=0.05))
        assert processor.mc_samples() == processor.budget.mc_samples

    def test_requirement_lambda_is_the_lambda(self, quadratic_udf):
        processor = OLGAPRO(quadratic_udf, requirement=AccuracyRequirement(lambda_value=0.3))
        assert processor.lambda_value() == 0.3

    def test_lambda_defaults_to_a_fraction_of_the_output_range(self, quadratic_udf):
        processor = OLGAPRO(quadratic_udf, lambda_fraction=0.25)
        assert processor.lambda_value() == 0.25 * processor.output_range_of(
            processor.emulator.gp
        )


class TestProcessing:
    def test_meets_error_budget_on_smooth_udf(self, quadratic_udf):
        udf = quadratic_udf.with_simulated_eval_time(0.0)
        processor = small_processor(udf)
        result = processor.process(Gaussian(1.0, 0.2))
        assert result.converged
        assert result.error_bound.epsilon_total <= processor.requirement.epsilon + 1e-9
        assert result.distribution.size == 400

    def test_output_close_to_ground_truth(self, quadratic_udf):
        udf = quadratic_udf.with_simulated_eval_time(0.0)
        processor = small_processor(udf, epsilon=0.1, n_samples=1500)
        input_dist = Gaussian(1.0, 0.3)
        result = processor.process(input_dist)
        truth = true_output_distribution(udf, input_dist, 20000, random_state=5)
        lam = processor.lambda_value()
        actual = lambda_discrepancy(result.distribution, truth, lam)
        assert actual <= processor.requirement.epsilon + 0.05

    def test_udf_calls_decrease_across_tuples(self, f1_udf):
        udf = f1_udf.with_simulated_eval_time(0.0)
        from repro.distributions.multivariate import IndependentJoint

        processor = small_processor(udf, initial_training_points=10)
        calls = []
        rng = np.random.default_rng(0)
        for _ in range(6):
            mean = rng.uniform(2, 8, size=2)
            dist = IndependentJoint([Gaussian(mean[0], 0.5), Gaussian(mean[1], 0.5)])
            result = processor.process(dist)
            calls.append(result.udf_calls)
        # The first tuple pays for initial training; later tuples should need
        # far fewer (often zero) UDF calls.
        assert calls[0] >= processor.initial_training_points
        assert np.mean(calls[3:]) < calls[0]

    def test_training_points_accumulate(self, quadratic_udf):
        udf = quadratic_udf.with_simulated_eval_time(0.0)
        processor = small_processor(udf)
        assert processor.n_training == 0
        processor.process(Gaussian(0.0, 0.2))
        first = processor.n_training
        processor.process(Gaussian(2.0, 0.2))
        assert processor.n_training >= first
        assert processor.tuples_processed == 2

    def test_max_points_per_tuple_respected(self, f4_udf):
        udf = f4_udf.with_simulated_eval_time(0.0)
        processor = small_processor(
            udf, epsilon=0.05, max_points_per_tuple=3, initial_training_points=5
        )
        from repro.distributions.multivariate import IndependentJoint

        result = processor.process(
            IndependentJoint([Gaussian(5.0, 0.5), Gaussian(5.0, 0.5)])
        )
        assert result.points_added <= 3
        # With such a tight budget on a bumpy function convergence may fail,
        # but the result must still report a valid (possibly large) bound.
        assert result.error_bound.epsilon_gp >= 0

    def test_ks_metric_variant(self, quadratic_udf):
        udf = quadratic_udf.with_simulated_eval_time(0.0)
        processor = small_processor(
            udf, requirement=AccuracyRequirement(epsilon=0.15, delta=0.05, metric="ks")
        )
        result = processor.process(Gaussian(1.0, 0.2))
        assert result.error_bound.epsilon_total <= 0.15 + 1e-9

    def test_alternative_strategies_work(self, quadratic_udf):
        udf = quadratic_udf.with_simulated_eval_time(0.0)
        processor = small_processor(
            udf,
            tuning_strategy=RandomStrategy(),
            retraining_policy=NeverRetrain(),
        )
        result = processor.process(Gaussian(0.5, 0.3))
        assert result.distribution is not None

    def test_eager_retraining_marks_result(self, quadratic_udf):
        udf = quadratic_udf.with_simulated_eval_time(0.0)
        processor = small_processor(
            udf, epsilon=0.08, retraining_policy=EagerRetrain(), n_samples=600
        )
        # Use a shifted input so the processor is likely to add points.
        result = processor.process(Gaussian(2.5, 0.4))
        if result.points_added > 0:
            assert result.retrained

    def test_global_inference_mode(self, quadratic_udf):
        udf = quadratic_udf.with_simulated_eval_time(0.0)
        processor = small_processor(udf, use_local_inference=False)
        result = processor.process(Gaussian(1.0, 0.2))
        assert result.converged


class TestOnlineFiltering:
    """§5.5's drop test as the last step of the tuple-commit loop."""

    def test_drops_tuple_outside_predicate(self, quadratic_udf):
        udf = quadratic_udf.with_simulated_eval_time(0.0)
        processor = small_processor(udf)
        # Output of x^2+1 around x ~ N(1, 0.2) lives near 2; predicate far away.
        predicate = SelectionPredicate(low=50.0, high=60.0, threshold=0.1)
        [result] = processor.process_batch([Gaussian(1.0, 0.2)], predicate=predicate)
        assert result.dropped
        assert result.filter_decision.action == "drop"
        assert result.filter_decision.n_samples == processor.mc_samples()
        assert result.filter_decision.estimate == 0.0

    def test_keeps_tuple_inside_predicate(self, quadratic_udf):
        udf = quadratic_udf.with_simulated_eval_time(0.0)
        processor = small_processor(udf)
        predicate = SelectionPredicate(low=1.0, high=3.0, threshold=0.1)
        [result] = processor.process_batch([Gaussian(1.0, 0.2)], predicate=predicate)
        assert not result.dropped
        assert result.filter_decision.action == "keep"
        assert result.filter_decision.estimate > 0.5
        assert result.distribution.interval_probability(1.0, 3.0) > 0.5

    def test_without_a_predicate_nothing_is_tested(self, quadratic_udf):
        processor = small_processor(quadratic_udf.with_simulated_eval_time(0.0))
        [result] = processor.process_batch([Gaussian(1.0, 0.2)])
        assert result.filter_decision is None and not result.dropped

    def test_the_test_is_a_pure_read(self, quadratic_udf):
        """Same seed, same tuples: the predicate changes nothing but the verdict."""
        predicate = SelectionPredicate(low=50.0, high=60.0, threshold=0.1)
        dists = [Gaussian(1.0, 0.2), Gaussian(2.5, 0.3), Gaussian(0.5, 0.1)]
        runs = []
        for with_predicate in (False, True):
            processor = small_processor(quadratic_udf.with_simulated_eval_time(0.0))
            runs.append(processor.process_batch(
                dists, predicate=predicate if with_predicate else None
            ))
        for applied, filtered in zip(*runs):
            assert filtered.dropped
            assert np.array_equal(applied.distribution.samples, filtered.distribution.samples)
            assert applied.error_bound == filtered.error_bound
            assert applied.udf_calls == filtered.udf_calls
