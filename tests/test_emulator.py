"""Unit tests for the GP emulator and the offline Algorithm 2."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.core.emulator import GPEmulator, emulate_output, offline_gp_output
from repro.core.filtering import SelectionPredicate
from repro.core.metrics import ks_distance
from repro.distributions.continuous import Gaussian
from repro.distributions.multivariate import IndependentJoint
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.exceptions import GPError, NotTrainedError, UDFError
from repro.gp.training import fit_hyperparameters, initial_hyperparameters
from repro.index.bounding_box import BoundingBox
from repro.index.rtree import RTree
from repro.udf.base import UDF
from repro.workloads.generators import input_stream, true_output_distribution, workload_for_udf


def assert_index_holds_training_rows(emulator):
    """An R-tree bulk-loaded from the training set, as Expt 1 builds it,
    holds exactly rows ``0..n-1`` of that set."""
    X = emulator.gp.X_train
    index = RTree(dimension=emulator.udf.dimension)
    index.bulk_load(X)
    index.check_invariants()
    assert len(index) == emulator.n_training
    assert sorted(index.all_payloads()) == list(range(emulator.n_training))
    for row, x in enumerate(X):
        assert row in index.search_within_distance(BoundingBox.from_point(x), 0.0)


def assert_owns_no_index(emulator):
    """The emulator carries no R-tree of its own, built or pending."""
    assert not hasattr(emulator, "index")
    assert not any(isinstance(value, RTree) for value in vars(emulator).values())


class TestIndexedTrainingRows:
    """The emulator owns no R-tree: callers that measure retrieval (Expt 1)
    bulk-load one from ``gp.X_train``, so those rows must follow every
    addition, rollback and pickle round trip."""

    @pytest.fixture
    def emulator(self, f1_udf):
        emulator = GPEmulator(f1_udf.with_simulated_eval_time(0.0))
        emulator.train_initial(12, random_state=0, optimize_hyperparameters=False)
        return emulator

    def test_empty_before_training(self, f1_udf):
        emulator = GPEmulator(f1_udf)
        assert emulator.n_training == 0
        with pytest.raises(NotTrainedError):
            _ = emulator.gp.X_train
        assert_owns_no_index(emulator)

    def test_rows_follow_additions(self, emulator):
        assert_index_holds_training_rows(emulator)
        emulator.add_training_point(np.array([4.0, 4.5]))
        assert_index_holds_training_rows(emulator)
        emulator.absorb_observations(np.array([[5.0, 5.5], [6.0, 3.5]]), np.array([0.1, 0.2]))
        emulator.add_training_points(np.array([[3.0, 3.5], [6.5, 6.5]]))
        assert_index_holds_training_rows(emulator)
        assert emulator.n_training == 17
        assert np.array_equal(emulator.gp.X_train[12], [4.0, 4.5])
        assert_owns_no_index(emulator)

    def test_rows_follow_a_rollback(self, emulator):
        before = emulator.gp.X_train
        state = emulator.snapshot()
        emulator.add_training_points(np.array([[4.0, 4.5], [5.0, 5.5]]))
        assert emulator.n_training == 14
        emulator.restore(state)
        assert np.array_equal(emulator.gp.X_train, before)
        assert_index_holds_training_rows(emulator)

    def test_rows_replaced_after_a_rollback(self, emulator):
        """Shrink, then regrow past the old size: the new rows, not the old."""
        state = emulator.snapshot()
        emulator.add_training_points(np.array([[4.0, 4.5], [5.0, 5.5]]))
        emulator.restore(state)
        regrown = np.array([[6.0, 3.5], [3.0, 3.5], [6.5, 6.5]])
        emulator.add_training_points(regrown)
        assert emulator.n_training == 15
        assert np.array_equal(emulator.gp.X_train[12:], regrown)
        assert_index_holds_training_rows(emulator)

    def test_rows_survive_a_pickle_round_trip(self, emulator):
        clone = pickle.loads(pickle.dumps(emulator))
        assert np.array_equal(clone.gp.X_train, emulator.gp.X_train)
        assert_owns_no_index(clone)
        clone.add_training_point(np.array([4.0, 4.5]))
        assert (clone.n_training, emulator.n_training) == (13, 12)
        assert_index_holds_training_rows(clone)

    @pytest.mark.parametrize("with_predicate", [False, True])
    def test_no_plan_builds_an_index(self, f1_udf, with_predicate):
        udf = f1_udf.with_simulated_eval_time(0.0)
        engine = UDFExecutionEngine(
            strategy="gp", requirement=AccuracyRequirement(epsilon=0.15, delta=0.05),
            random_state=5, n_samples=200,
        )
        dists = list(input_stream(workload_for_udf(udf), 6, random_state=np.random.default_rng(1)))
        predicate = SelectionPredicate(low=0.0, high=0.4, threshold=0.1) if with_predicate else None
        result = engine.compute_with_plan(udf, dists, plan=ExecutionPlan(), predicate=predicate)
        assert len(result.outputs) == 6
        emulator = engine.olgapro_for(udf).emulator
        assert emulator.n_training > 0
        assert_owns_no_index(emulator)
        assert_index_holds_training_rows(emulator)


class TestGPEmulator:
    def test_train_initial_counts_udf_calls(self, f1_udf):
        udf = f1_udf.with_simulated_eval_time(0.0)
        emulator = GPEmulator(udf)
        emulator.train_initial(30, random_state=0)
        assert emulator.n_training == 30
        assert udf.call_count == 30

    def test_designs(self, f1_udf):
        for design in ("random", "grid", "halton"):
            emulator = GPEmulator(f1_udf.with_simulated_eval_time(0.0))
            emulator.train_initial(16, design=design, random_state=0)
            assert emulator.n_training >= 16

    def test_invalid_design_rejected(self, f1_udf):
        emulator = GPEmulator(f1_udf.with_simulated_eval_time(0.0))
        with pytest.raises(GPError):
            emulator.train_initial(10, design="sobol")

    def test_requires_positive_points(self, f1_udf):
        emulator = GPEmulator(f1_udf)
        with pytest.raises(GPError):
            emulator.train_initial(0)

    def test_domain_required(self):
        udf = UDF(lambda x: 1.0, dimension=1)  # no declared domain
        emulator = GPEmulator(udf)
        with pytest.raises(GPError):
            emulator.train_initial(5)
        emulator.train_initial(5, domain=(np.array([0.0]), np.array([1.0])), random_state=0)
        assert emulator.n_training == 5

    def test_add_training_point(self, quadratic_udf):
        emulator = GPEmulator(quadratic_udf.with_simulated_eval_time(0.0))
        emulator.train_initial(6, random_state=0)
        value = emulator.add_training_point(np.array([1.5]))
        assert value == pytest.approx(1.5**2 + 1.0)
        assert emulator.n_training == 7

    def test_add_training_point_shape_check(self, quadratic_udf):
        emulator = GPEmulator(quadratic_udf.with_simulated_eval_time(0.0))
        emulator.train_initial(4, random_state=0)
        with pytest.raises(UDFError):
            emulator.add_training_point(np.array([1.0, 2.0]))

    def test_prediction_quality_on_smooth_function(self, quadratic_udf):
        emulator = GPEmulator(quadratic_udf.with_simulated_eval_time(0.0))
        emulator.train_initial(25, design="grid", random_state=0)
        X_test = np.linspace(-2.5, 2.5, 20).reshape(-1, 1)
        means, stds = emulator.predict(X_test)
        truth = X_test.ravel() ** 2 + 1.0
        assert np.max(np.abs(means - truth)) < 0.1
        assert np.all(stds >= 0)

    @pytest.mark.parametrize("n", [12, 30])
    def test_retrain_starts_from_the_heuristic_without_factorising_it(self, f1_udf, n):
        twins = []
        for _ in range(2):
            emulator = GPEmulator(f1_udf.with_simulated_eval_time(0.0))
            emulator.train_initial(n, random_state=n, optimize_hyperparameters=False)
            twins.append(emulator)
        emulator, oracle = twins
        version, choleskies = emulator.gp.version, emulator.gp.op_counts["cholesky"]
        emulator.retrain()
        # The former spelling: set the heuristic start on the model, then fit.
        gp = oracle.gp
        gp.set_hyperparameters(initial_hyperparameters(gp.X_train, gp.y_train))
        fit_hyperparameters(gp)
        for name in ("K_inv", "alpha"):
            assert getattr(emulator.gp, name).tobytes() == getattr(gp, name).tobytes()
        assert emulator.gp.kernel.theta.tobytes() == gp.kernel.theta.tobytes()
        assert emulator.gp.op_counts["cholesky"] == gp.op_counts["cholesky"] - 1
        assert emulator.gp.op_counts["cholesky"] > choleskies
        assert emulator.gp.version == version + 1

    def test_retrain_requires_data(self, f1_udf):
        with pytest.raises(GPError):
            GPEmulator(f1_udf).retrain()


class TestEmulateOutput:
    def test_output_distribution_close_to_truth(self, trained_f1_emulator, gaussian_2d_input):
        result = emulate_output(
            trained_f1_emulator, gaussian_2d_input, n_samples=800, random_state=0
        )
        truth = true_output_distribution(
            trained_f1_emulator.udf, gaussian_2d_input, 15000, random_state=1
        )
        assert ks_distance(result.distribution, truth) < 0.1
        assert result.n_samples == 800
        assert result.envelope.n_samples == 800

    def test_no_udf_calls_during_inference(self, trained_f1_emulator, gaussian_2d_input):
        calls_before = trained_f1_emulator.udf.call_count
        emulate_output(trained_f1_emulator, gaussian_2d_input, n_samples=300, random_state=0)
        assert trained_f1_emulator.udf.call_count == calls_before

    def test_invalid_sample_count(self, trained_f1_emulator, gaussian_2d_input):
        with pytest.raises(GPError):
            emulate_output(trained_f1_emulator, gaussian_2d_input, n_samples=0)

    def test_envelope_bracketing(self, trained_f1_emulator, gaussian_2d_input):
        result = emulate_output(
            trained_f1_emulator, gaussian_2d_input, n_samples=500, random_state=2
        )
        grid = np.linspace(*result.distribution.support, 50)
        env = result.envelope
        assert np.all(env.y_lower.cdf(grid) >= env.y_upper.cdf(grid) - 1e-12)


class TestOfflineAlgorithm:
    def test_end_to_end(self, quadratic_udf):
        udf = quadratic_udf.with_simulated_eval_time(0.0)
        input_dist = Gaussian(1.0, 0.2)
        result = offline_gp_output(
            udf, input_dist, n_training=25, n_samples=600, random_state=0
        )
        truth = true_output_distribution(udf, input_dist, 20000, random_state=1)
        assert ks_distance(result.distribution, truth) < 0.08
        # Training used exactly n_training UDF calls; inference used none.
        assert result.udf_calls == 25

    def test_2d_input(self, f1_udf):
        udf = f1_udf.with_simulated_eval_time(0.0)
        input_dist = IndependentJoint([Gaussian(3.0, 0.5), Gaussian(5.0, 0.5)])
        result = offline_gp_output(udf, input_dist, n_training=40, n_samples=400, random_state=3)
        assert result.distribution.size == 400
        assert result.n_training == 40
