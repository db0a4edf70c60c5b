"""Unit tests for GP hyperparameter training."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize

import repro.gp.regression as regression
from repro.exceptions import GPError
from repro.gp.kernels import Matern32, Matern52, SquaredExponential, pairwise_sq_dists
from repro.gp.regression import GaussianProcess
from repro.gp.training import (
    fit_hyperparameters,
    gradient_step,
    hyperparameter_bounds,
    initial_hyperparameters,
    newton_step,
)


def smooth_data(n=30, lengthscale=1.5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 1))
    y = np.sin(X / lengthscale).ravel() * 2.0
    return X, y


class TestInitialHyperparameters:
    def test_signal_matches_target_std(self):
        X, y = smooth_data()
        theta = initial_hyperparameters(X, y)
        assert np.exp(theta[0]) == pytest.approx(np.std(y), rel=1e-6)

    def test_lengthscale_is_median_distance(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 0.0])
        theta = initial_hyperparameters(X, y)
        assert np.exp(theta[1]) == pytest.approx(1.0)

    def test_degenerate_targets_fall_back(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([3.0, 3.0])
        theta = initial_hyperparameters(X, y)
        assert np.exp(theta[0]) == pytest.approx(1.0)

    def test_single_point(self):
        theta = initial_hyperparameters(np.array([[1.0]]), np.array([2.0]))
        assert np.all(np.isfinite(theta))


class TestFitHyperparameters:
    def test_likelihood_never_decreases(self):
        X, y = smooth_data(seed=1)
        gp = GaussianProcess(kernel=SquaredExponential(signal_std=0.3, lengthscale=0.2))
        gp.fit(X, y)
        before = gp.log_marginal_likelihood()
        result = fit_hyperparameters(gp)
        assert result.log_likelihood >= before - 1e-9
        assert gp.log_marginal_likelihood() == pytest.approx(result.log_likelihood)

    def test_recovers_sensible_lengthscale(self):
        X, y = smooth_data(n=60, lengthscale=1.5, seed=2)
        gp = GaussianProcess(kernel=SquaredExponential(signal_std=1.0, lengthscale=0.1))
        gp.fit(X, y)
        fit_hyperparameters(gp)
        # The sinusoid's period is ~9.4; a fitted lengthscale far below 0.3 or
        # above 30 would indicate a broken optimiser.
        assert 0.3 < gp.kernel.lengthscale < 30.0

    def test_gradient_ascent_variant(self):
        X, y = smooth_data(n=25, seed=3)
        gp = GaussianProcess(kernel=SquaredExponential(signal_std=0.5, lengthscale=0.5))
        gp.fit(X, y)
        before = gp.log_marginal_likelihood()
        result = fit_hyperparameters(gp, method="gradient", max_iterations=50)
        assert result.log_likelihood >= before - 1e-9

    def test_unknown_method_rejected(self):
        X, y = smooth_data(n=10)
        gp = GaussianProcess().fit(X, y)
        with pytest.raises(GPError):
            fit_hyperparameters(gp, method="adam")

    def test_untrained_gp_rejected(self):
        with pytest.raises(GPError):
            fit_hyperparameters(GaussianProcess())


class TestSingleSteps:
    def test_gradient_step_moves_uphill(self):
        X, y = smooth_data(n=20, seed=4)
        gp = GaussianProcess(kernel=SquaredExponential(signal_std=0.3, lengthscale=0.3))
        gp.fit(X, y)
        before = gp.log_marginal_likelihood()
        proposed = gradient_step(gp, learning_rate=0.01)
        gp.set_hyperparameters(proposed)
        assert gp.log_marginal_likelihood() > before

    def test_newton_step_is_clipped(self):
        X, y = smooth_data(n=20, seed=5)
        gp = GaussianProcess(kernel=SquaredExponential(signal_std=0.1, lengthscale=0.1))
        gp.fit(X, y)
        proposed = newton_step(gp, max_step=2.0)
        assert np.all(np.abs(proposed - gp.kernel.theta) <= 2.0 + 1e-12)

    def test_newton_step_near_optimum_is_small(self):
        X, y = smooth_data(n=40, seed=6)
        gp = GaussianProcess().fit(X, y)
        fit_hyperparameters(gp)
        proposed = newton_step(gp)
        # At (near) the MLE the Newton step should propose only a modest move;
        # the optimum may sit on a data-driven bound, in which case the
        # one-sided gradient keeps the step from being exactly zero.
        assert np.linalg.norm(proposed - gp.kernel.theta) < 1.0
        # Applying the proposed step must not dramatically improve the
        # likelihood (we were already essentially at the constrained optimum).
        before = gp.log_marginal_likelihood()
        gp.set_hyperparameters(np.clip(proposed, -10, 10))
        after = gp.log_marginal_likelihood()
        assert after <= before + max(3.0, 0.1 * abs(before))

    def test_steps_do_not_modify_gp(self):
        X, y = smooth_data(n=15, seed=7)
        gp = GaussianProcess().fit(X, y)
        theta_before = gp.kernel.theta.copy()
        gradient_step(gp)
        newton_step(gp)
        assert np.allclose(gp.kernel.theta, theta_before)


def _model_state(gp: GaussianProcess) -> tuple:
    """Every number a prediction or a likelihood reads, as bytes."""
    return (
        np.array([gp.kernel.signal_std, gp.kernel.lengthscale]).tobytes(),
        gp.K_inv.tobytes(),
        gp.alpha.tobytes(),
        np.float64(gp.snapshot().log_det).tobytes(),
        np.float64(gp.mean_offset).tobytes(),
        gp.version,
    )


def _oracle_fit(gp: GaussianProcess) -> tuple[np.ndarray, list[np.ndarray]]:
    """The L-BFGS fit as a mutating objective runs it: set each evaluated
    theta on the model, then read its likelihood and gradient."""
    evaluated = []

    def objective(theta):
        evaluated.append(np.array(theta))
        gp.set_hyperparameters(theta)
        return -gp.log_marginal_likelihood(), -gp.log_marginal_likelihood_gradient()

    bounds = hyperparameter_bounds(gp.X_train, gp.y_train)
    theta0 = np.clip(gp.kernel.theta, [b[0] for b in bounds], [b[1] for b in bounds])
    result = optimize.minimize(
        objective, theta0, jac=True, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": 100},
    )
    gp.set_hyperparameters(result.x)
    return result.x, evaluated


def _oracle_gradient_fit(gp: GaussianProcess, learning_rate: float) -> tuple[np.ndarray, float]:
    """Backtracking gradient ascent on a mutating objective: every proposal
    and every backtrack is set on the model, and each iteration reads the
    gradient off it."""
    theta = gp.kernel.theta
    best_ll = gp.log_marginal_likelihood()
    step = learning_rate
    for _ in range(100):
        gradient = gp.log_marginal_likelihood_gradient()
        if float(np.max(np.abs(gradient))) < 1e-5:
            break
        proposal = np.clip(theta + step * gradient, -10.0, 10.0)
        gp.set_hyperparameters(proposal)
        new_ll = gp.log_marginal_likelihood()
        if new_ll > best_ll:
            theta, best_ll = proposal, new_ll
            step = min(step * 1.2, 1.0)
        else:
            gp.set_hyperparameters(theta)
            step *= 0.5
            if step < 1e-6:
                break
    gp.set_hyperparameters(theta)
    return theta, best_ll


def _warm_twins(kernel_type, n: int) -> tuple[GaussianProcess, GaussianProcess]:
    """Two identical models whose inverse was last grown incrementally."""
    rng = np.random.default_rng(n)
    X = rng.uniform(0.0, 10.0, size=(n + 1, 2))
    y = np.sin(X[:, 0]) + 0.3 * X[:, 1] + 4.0
    twins = []
    for _ in range(2):
        gp = GaussianProcess(kernel=kernel_type(0.8, 1.7)).fit(X[:n], y[:n])
        gp.add_point(X[n], y[n])
        twins.append(gp)
    return twins[0], twins[1]


class TestFitIdentity:
    """The pure objective reproduces the mutating one bit for bit."""

    @pytest.mark.parametrize("kernel_type", [SquaredExponential, Matern32, Matern52])
    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_fit_matches_the_mutating_objective(self, kernel_type, n, monkeypatch):
        gp, oracle = _warm_twins(kernel_type, n)
        evaluated = []
        build = gp.likelihood_objective

        def recording(distances):
            objective = build(distances)

            def record(theta):
                evaluated.append(np.array(theta))
                return objective(theta)

            return record

        monkeypatch.setattr(gp, "likelihood_objective", recording)
        version, choleskies = gp.version, gp.op_counts["cholesky"]
        result = fit_hyperparameters(gp)

        expected_theta, expected_evaluated = _oracle_fit(oracle)
        assert result.theta.tobytes() == expected_theta.tobytes()
        assert len(evaluated) == len(expected_evaluated)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(evaluated, expected_evaluated))
        assert _model_state(gp)[:5] == _model_state(oracle)[:5]
        assert gp.op_counts == oracle.op_counts
        assert gp.op_counts["cholesky"] == choleskies + len(evaluated) + 1
        # The model moves once, to the optimum.
        assert gp.version == version + 1

    @pytest.mark.parametrize("kernel_type", [SquaredExponential, Matern32, Matern52])
    @pytest.mark.parametrize("learning_rate", [0.1, 5.0])
    def test_gradient_ascent_matches_the_mutating_objective(self, kernel_type, learning_rate):
        gp, oracle = _warm_twins(kernel_type, 20)
        version = gp.version
        result = fit_hyperparameters(gp, method="gradient", learning_rate=learning_rate)
        expected_theta, expected_ll = _oracle_gradient_fit(oracle, learning_rate)
        assert result.theta.tobytes() == expected_theta.tobytes()
        assert _model_state(gp)[:5] == _model_state(oracle)[:5]
        assert result.log_likelihood == expected_ll
        assert gp.version == version + 1
        # A backtrack refactorises only at the incrementally grown warm start.
        assert gp.op_counts["cholesky"] < oracle.op_counts["cholesky"]

    @pytest.mark.parametrize("kernel_type", [SquaredExponential, Matern32, Matern52])
    @pytest.mark.parametrize("method", ["lbfgs", "gradient"])
    def test_start_matches_setting_it_first(self, kernel_type, method):
        gp, oracle = _warm_twins(kernel_type, 20)
        start = initial_hyperparameters(gp.X_train, gp.y_train)
        version = gp.version
        result = fit_hyperparameters(gp, method=method, start=start)

        oracle.set_hyperparameters(start)
        expected = fit_hyperparameters(oracle, method=method)
        assert result.theta.tobytes() == expected.theta.tobytes()
        assert result.log_likelihood == expected.log_likelihood
        assert _model_state(gp)[:5] == _model_state(oracle)[:5]
        # L-BFGS spends no factorisation at the start; gradient ascent
        # spends the one setting it would, and then no backtrack refactorises.
        saved = oracle.op_counts["cholesky"] - gp.op_counts["cholesky"]
        assert saved == 1 if method == "lbfgs" else saved >= 0
        assert gp.version == version + 1

    def test_newton_probe_matches_separate_derivatives(self):
        gp, _ = _warm_twins(Matern52, 20)
        gradient, hessian = gp.log_marginal_likelihood_derivatives()
        assert gradient.tobytes() == gp.log_marginal_likelihood_gradient().tobytes()
        grads = gp.kernel.gradients(gp.X_train)
        r = np.sqrt(pairwise_sq_dists(gp.X_train, gp.X_train))
        seconds = gp.kernel.second_derivatives_from_distances(r, gp.kernel(gp.X_train, gp.X_train))
        expected = regression._likelihood_hessian_diag(
            gp.K_inv, gp.y_train - gp.mean_offset, grads, seconds
        )
        assert hessian.tobytes() == expected.tobytes()


class TestFailedFactorisation:
    """A factorisation that raises leaves the model as it was."""

    @staticmethod
    def _raise_on_call(monkeypatch, k: int) -> None:
        calls = [0]
        original = regression.jittered_cholesky

        def failing(matrix, *args, **kwargs):
            calls[0] += 1
            if calls[0] == k:
                raise GPError("injected factorisation failure")
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(regression, "jittered_cholesky", failing)

    def test_failed_set_hyperparameters_changes_nothing(self, monkeypatch):
        X, y = smooth_data(n=15, seed=8)
        gp = GaussianProcess().fit(X, y)
        before = _model_state(gp)
        self._raise_on_call(monkeypatch, 1)
        with pytest.raises(GPError):
            gp.set_hyperparameters(gp.kernel.theta + np.array([0.4, -0.3]))
        assert _model_state(gp) == before

    def test_failed_fit_propagates_and_changes_nothing(self, monkeypatch):
        X, y = smooth_data(n=15, seed=9)
        gp = GaussianProcess(kernel=SquaredExponential(0.3, 0.2)).fit(X, y)
        before = _model_state(gp)
        self._raise_on_call(monkeypatch, 3)
        with pytest.raises(GPError, match="injected"):
            fit_hyperparameters(gp)
        assert _model_state(gp) == before
