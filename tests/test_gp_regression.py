"""Unit tests for the Gaussian-process regressor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GPError, NotTrainedError
from repro.gp.kernels import Matern52, SquaredExponential
from repro.gp import regression
from repro.gp.regression import GaussianProcess


def make_training_data(n=25, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 5, size=(n, 1))
    y = np.sin(X).ravel()
    return X, y


class TestFitAndPredict:
    def test_untrained_raises(self):
        gp = GaussianProcess()
        with pytest.raises(NotTrainedError):
            gp.predict(np.zeros((1, 1)))
        with pytest.raises(NotTrainedError):
            _ = gp.X_train

    def test_interpolates_training_points(self):
        X, y = make_training_data()
        gp = GaussianProcess(kernel=SquaredExponential(signal_std=1.0, lengthscale=1.0))
        gp.fit(X, y)
        mean, std = gp.predict(X)
        assert np.allclose(mean, y, atol=1e-3)
        assert np.all(std < 1e-2)

    def test_prediction_accuracy_between_points(self):
        X, y = make_training_data(n=40)
        gp = GaussianProcess(kernel=SquaredExponential(signal_std=1.0, lengthscale=1.0))
        gp.fit(X, y)
        X_test = np.linspace(0.2, 4.8, 30).reshape(-1, 1)
        mean = gp.predict_mean(X_test)
        assert np.max(np.abs(mean - np.sin(X_test).ravel())) < 0.05

    def test_variance_grows_away_from_data(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.zeros(3)
        gp = GaussianProcess(kernel=SquaredExponential(lengthscale=0.5)).fit(X, y)
        _, std_near = gp.predict(np.array([[1.0]]))
        _, std_far = gp.predict(np.array([[10.0]]))
        assert std_far[0] > std_near[0]
        assert std_far[0] == pytest.approx(1.0, abs=1e-3)  # reverts to prior

    def test_predict_mean_matches_full_predict(self):
        X, y = make_training_data()
        gp = GaussianProcess().fit(X, y)
        X_test = np.linspace(0, 5, 11).reshape(-1, 1)
        mean_only = gp.predict_mean(X_test)
        mean_full, _ = gp.predict(X_test)
        assert np.allclose(mean_only, mean_full)

    def test_shape_validation(self):
        gp = GaussianProcess()
        with pytest.raises(GPError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(GPError):
            gp.fit(np.zeros((0, 2)), np.zeros(0))

    def test_works_with_matern_kernel(self):
        X, y = make_training_data(n=30, seed=1)
        gp = GaussianProcess(kernel=Matern52(signal_std=1.0, lengthscale=1.0)).fit(X, y)
        mean = gp.predict_mean(X)
        assert np.allclose(mean, y, atol=5e-3)


class TestIncrementalUpdates:
    def test_add_point_matches_refit(self):
        # Disable target centering: the incremental path deliberately keeps
        # the offset fixed between refreshes, so exact agreement with a fresh
        # fit is only defined for the uncentred model.
        X, y = make_training_data(n=20, seed=2)
        incremental = GaussianProcess(center_targets=False).fit(X[:10], y[:10])
        for i in range(10, 20):
            incremental.add_point(X[i], y[i])
        refit = GaussianProcess(center_targets=False).fit(X, y)
        X_test = np.linspace(0, 5, 15).reshape(-1, 1)
        mean_inc, std_inc = incremental.predict(X_test)
        mean_ref, std_ref = refit.predict(X_test)
        assert np.allclose(mean_inc, mean_ref, atol=1e-6)
        # Posterior stds are tiny near data; allow for incremental round-off.
        assert np.allclose(std_inc, std_ref, atol=1e-4)

    def test_add_point_on_empty_model(self):
        gp = GaussianProcess()
        gp.add_point(np.array([1.0]), 2.0)
        assert gp.n_training == 1
        assert gp.predict_mean(np.array([[1.0]]))[0] == pytest.approx(2.0, abs=1e-6)

    def test_duplicate_point_falls_back_to_refit(self):
        gp = GaussianProcess()
        gp.add_point(np.array([1.0]), 2.0)
        gp.add_point(np.array([1.0]), 2.0)  # must not crash
        assert gp.n_training == 2

    def test_dimension_mismatch_rejected(self):
        gp = GaussianProcess().fit(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(GPError):
            gp.add_point(np.array([1.0]), 0.0)

    def test_state_arrays_are_read_only(self):
        X, y = make_training_data(n=10, seed=3)
        gp = GaussianProcess().fit(X[:8], y[:8])
        gp.add_points(X[8:], y[8:])
        state = gp.snapshot()
        for array in (state.X, state.y, state.K_inv, state.alpha):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        # The public accessors hand out writable copies.
        for array in (gp.X_train, gp.y_train, gp.K_inv, gp.alpha):
            array[0] = 0.0
        assert np.array_equal(state.X, X)

    def test_periodic_refresh(self):
        gp = GaussianProcess(refresh_every=5)
        rng = np.random.default_rng(3)
        for i in range(12):
            gp.add_point(rng.uniform(0, 5, size=1), float(i))
        assert gp.n_training == 12
        # After the refresh the committed state's counter is reset.
        assert gp.snapshot().adds_since_refresh < 5


class TestLikelihood:
    def test_likelihood_value_matches_direct_formula(self):
        X, y = make_training_data(n=12, seed=4)
        # Disable target centering so the closed-form zero-mean formula applies.
        gp = GaussianProcess(noise_variance=1e-6, center_targets=False).fit(X, y)
        K = gp.kernel(X, X) + 1e-6 * np.eye(12)
        sign, logdet = np.linalg.slogdet(K)
        expected = -0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet - 6 * np.log(2 * np.pi)
        assert gp.log_marginal_likelihood() == pytest.approx(expected, rel=1e-6)

    def test_log_det_after_an_add_is_one_counted_factorisation(self):
        X, y = make_training_data(n=11, seed=4)
        gp = GaussianProcess().fit(X[:10], y[:10])
        gp.add_point(X[10], y[10])
        assert gp.snapshot().log_det is None
        choleskies = gp.op_counts["cholesky"]
        first = gp.log_marginal_likelihood()
        assert gp.op_counts["cholesky"] == choleskies + 1
        assert gp.log_marginal_likelihood() == first
        assert gp.op_counts["cholesky"] == choleskies + 1
        # Bitwise the factorisation of the whole noise-augmented K.
        K = gp.kernel(X, X) + gp.effective_noise() * np.eye(11)
        L, _ = regression.jittered_cholesky(K)
        assert gp.snapshot().log_det == regression.log_det_from_cholesky(L)

    def test_gradient_matches_finite_differences(self):
        X, y = make_training_data(n=15, seed=5)
        gp = GaussianProcess(noise_variance=1e-6).fit(X, y)
        analytic = gp.log_marginal_likelihood_gradient()
        eps = 1e-5
        theta = gp.kernel.theta
        numeric = np.zeros_like(analytic)
        for j in range(theta.size):
            gp.set_hyperparameters(theta + eps * np.eye(theta.size)[j])
            plus = gp.log_marginal_likelihood()
            gp.set_hyperparameters(theta - eps * np.eye(theta.size)[j])
            minus = gp.log_marginal_likelihood()
            numeric[j] = (plus - minus) / (2 * eps)
        gp.set_hyperparameters(theta)
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_hessian_diag_matches_finite_differences(self):
        X, y = make_training_data(n=12, seed=6)
        gp = GaussianProcess(noise_variance=1e-6).fit(X, y)
        analytic = gp.log_marginal_likelihood_derivatives()[1]
        eps = 1e-4
        theta = gp.kernel.theta
        numeric = np.zeros_like(analytic)
        base = gp.log_marginal_likelihood()
        for j in range(theta.size):
            gp.set_hyperparameters(theta + eps * np.eye(theta.size)[j])
            plus = gp.log_marginal_likelihood()
            gp.set_hyperparameters(theta - eps * np.eye(theta.size)[j])
            minus = gp.log_marginal_likelihood()
            numeric[j] = (plus - 2 * base + minus) / eps**2
            gp.set_hyperparameters(theta)
        assert np.allclose(analytic, numeric, rtol=1e-2, atol=1e-2)


class TestPosteriorSampling:
    def test_sample_shapes(self):
        X, y = make_training_data(n=10, seed=7)
        gp = GaussianProcess().fit(X, y)
        X_test = np.linspace(0, 5, 8).reshape(-1, 1)
        samples = gp.sample_posterior(X_test, n_samples=5, random_state=0)
        assert samples.shape == (5, 8)

    def test_samples_respect_training_data(self):
        X, y = make_training_data(n=15, seed=8)
        gp = GaussianProcess().fit(X, y)
        samples = gp.sample_posterior(X, n_samples=20, random_state=1)
        # At training points the posterior is pinned to the observations.
        assert np.max(np.abs(samples - y)) < 0.05


def _full_state(gp: GaussianProcess) -> tuple:
    """Every array and scalar of the model's state, as bytes, plus its version
    and the live kernel's hyperparameters."""
    state = gp.snapshot()
    return (
        gp.X_train.tobytes(),
        gp.y_train.tobytes(),
        gp.K_inv.tobytes(),
        gp.alpha.tobytes(),
        np.float64(gp.mean_offset).tobytes(),
        repr(state.log_det),
        state.adds_since_refresh,
        gp.version,
        gp.kernel.theta.tobytes(),
    )


def _mutate(gp: GaussianProcess, method: str, X: np.ndarray, y: np.ndarray) -> None:
    if method == "add_point":
        gp.add_point(X[0], float(y[0]))
    elif method == "add_points":
        gp.add_points(X, y)
    elif method == "fit":
        gp.fit(np.vstack([gp.X_train, X]), np.append(gp.y_train, y))
    else:
        gp.set_hyperparameters(gp.kernel.theta + 0.1)


_UPDATES = {"add_point": "block_inverse_update", "add_points": "block_inverse_update_multi"}
_REFITS = ["jittered_cholesky", "inverse_from_cholesky"]
#: Every mutator with every LAPACK-backed helper it calls (an add reaches
#: the refit helpers through its periodic refresh).
_MUTATOR_HELPERS = [
    *[("fit", helper) for helper in _REFITS],
    *[(method, helper) for method in _UPDATES for helper in [_UPDATES[method], *_REFITS]],
    *[("set_hyperparameters", helper) for helper in _REFITS],
]


class TestFailedAdd:
    """A mutation whose update or refit raises leaves the model, version included,
    as it was."""

    @staticmethod
    def _model(refresh_every: int = 64) -> tuple[GaussianProcess, np.ndarray, np.ndarray]:
        X, y = make_training_data(n=9, seed=4)
        gp = GaussianProcess(refresh_every=refresh_every).fit(X[:6], y[:6])
        return gp, X[6:], y[6:]

    @staticmethod
    def _fail(monkeypatch, name: str) -> None:
        def failing(*args, **kwargs):
            raise GPError(f"injected failure in {name}")

        monkeypatch.setattr(regression, name, failing)

    @pytest.mark.parametrize("method", ["add_point", "add_points"])
    def test_failed_update_with_failed_fallback_changes_nothing(self, method, monkeypatch):
        gp, X_new, y_new = self._model()
        before = _full_state(gp)
        X_test = np.linspace(0.0, 5.0, 7).reshape(-1, 1)
        expected = gp.predict(X_test)
        with monkeypatch.context() as patch:
            self._fail(patch, _UPDATES[method])
            self._fail(patch, "jittered_cholesky")
            with pytest.raises(GPError, match="jittered_cholesky"):
                _mutate(gp, method, X_new, y_new)
        assert _full_state(gp) == before
        mean, std = gp.predict(X_test)
        assert mean.tobytes() == expected[0].tobytes()
        assert std.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("method", ["add_point", "add_points"])
    def test_failed_refresh_changes_nothing(self, method, monkeypatch):
        gp, X_new, y_new = self._model(refresh_every=1)
        before = _full_state(gp)
        with monkeypatch.context() as patch:
            self._fail(patch, "jittered_cholesky")
            with pytest.raises(GPError, match="jittered_cholesky"):
                _mutate(gp, method, X_new, y_new)
        assert _full_state(gp) == before
        gp.predict(X_new)

    @pytest.mark.parametrize("method, helper", _MUTATOR_HELPERS)
    def test_update_that_raises_otherwise_propagates_and_changes_nothing(
        self, method, helper, monkeypatch
    ):
        gp, X_new, y_new = self._model(refresh_every=1 if helper in _REFITS else 64)
        state, before = gp.snapshot(), _full_state(gp)
        X_test = np.linspace(0.0, 5.0, 7).reshape(-1, 1)
        expected = gp.predict(X_test)

        def broken(*args, **kwargs):
            raise FloatingPointError(f"injected in {helper}")

        with monkeypatch.context() as patch:
            patch.setattr(regression, helper, broken)
            with pytest.raises(FloatingPointError, match=helper):
                _mutate(gp, method, X_new, y_new)
        assert gp.snapshot() is state
        assert _full_state(gp) == before
        mean, std = gp.predict(X_test)
        assert mean.tobytes() == expected[0].tobytes()
        assert std.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("method", ["add_point", "add_points"])
    def test_fallback_commits_a_fresh_fit_and_moves_the_version_once(
        self, method, monkeypatch
    ):
        gp, X_new, y_new = self._model()
        version = gp.version
        n = 1 if method == "add_point" else len(y_new)
        self._fail(monkeypatch, _UPDATES[method])
        _mutate(gp, method, X_new, y_new)
        fresh = GaussianProcess().fit(gp.X_train, gp.y_train)
        assert gp.n_training == 6 + n
        assert _full_state(gp)[:7] == _full_state(fresh)[:7]
        assert gp.version == version + 1

    @pytest.mark.parametrize("method", ["add_point", "add_points"])
    def test_refresh_commits_a_fresh_fit_and_moves_the_version_once(self, method):
        gp, X_new, y_new = self._model(refresh_every=1)
        version, updates = gp.version, dict(gp.op_counts)
        _mutate(gp, method, X_new, y_new)
        fresh = GaussianProcess().fit(gp.X_train, gp.y_train)
        assert _full_state(gp)[:7] == _full_state(fresh)[:7]
        assert gp.version == version + 1
        assert gp.op_counts["cholesky"] == updates["cholesky"] + 1
