"""Unit tests for GP kernels, their derivatives and spectral moments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GPError
from repro.gp.kernels import (
    Matern32,
    Matern52,
    SquaredExponential,
    make_kernel,
    pairwise_dists,
    pairwise_sq_dists,
)

ALL_KERNELS = [SquaredExponential, Matern32, Matern52]


class TestPairwiseDistances:
    def test_matches_direct_computation(self, rng):
        X1 = rng.normal(size=(10, 3))
        X2 = rng.normal(size=(7, 3))
        expected = np.array([[np.sum((a - b) ** 2) for b in X2] for a in X1])
        assert np.allclose(pairwise_sq_dists(X1, X2), expected, atol=1e-10)

    def test_non_negative(self, rng):
        X = rng.normal(size=(20, 2))
        assert np.all(pairwise_sq_dists(X, X) >= 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GPError):
            pairwise_sq_dists(np.zeros((2, 2)), np.zeros((2, 3)))


@pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
class TestKernelBasics:
    def test_diagonal_is_signal_variance(self, kernel_cls, rng):
        kernel = kernel_cls(signal_std=2.0, lengthscale=1.5)
        X = rng.normal(size=(5, 2))
        K = kernel(X, X)
        assert np.allclose(np.diag(K), 4.0)
        assert np.allclose(kernel.diag(X), 4.0)

    def test_symmetry_and_psd(self, kernel_cls, rng):
        kernel = kernel_cls(signal_std=1.0, lengthscale=0.8)
        X = rng.uniform(0, 5, size=(15, 2))
        K = kernel(X, X)
        assert np.allclose(K, K.T)
        eigenvalues = np.linalg.eigvalsh(K)
        assert eigenvalues.min() > -1e-8

    def test_decays_with_distance(self, kernel_cls):
        kernel = kernel_cls(signal_std=1.0, lengthscale=1.0)
        near = kernel(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = kernel(np.array([[0.0]]), np.array([[5.0]]))[0, 0]
        assert near > far > 0.0

    def test_theta_roundtrip(self, kernel_cls):
        kernel = kernel_cls(signal_std=3.0, lengthscale=0.5)
        theta = kernel.theta
        other = kernel_cls()
        other.theta = theta
        assert other.signal_std == pytest.approx(3.0)
        assert other.lengthscale == pytest.approx(0.5)

    def test_invalid_parameters_rejected(self, kernel_cls):
        with pytest.raises(GPError):
            kernel_cls(signal_std=-1.0, lengthscale=1.0)
        with pytest.raises(GPError):
            kernel_cls(signal_std=1.0, lengthscale=0.0)

    def test_clone_is_independent(self, kernel_cls):
        kernel = kernel_cls(signal_std=1.0, lengthscale=1.0)
        clone = kernel.clone()
        clone.theta = np.array([1.0, 1.0])
        assert kernel.lengthscale == pytest.approx(1.0)

    def test_second_spectral_moment_positive(self, kernel_cls):
        kernel = kernel_cls(signal_std=1.0, lengthscale=2.0)
        assert kernel.second_spectral_moment() > 0
        # Larger lengthscale => smoother process => smaller spectral moment.
        rough = kernel_cls(signal_std=1.0, lengthscale=0.5)
        assert rough.second_spectral_moment() > kernel.second_spectral_moment()


@pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
class TestKernelDerivatives:
    """Analytic hyperparameter derivatives agree with finite differences."""

    @staticmethod
    def _finite_difference(kernel_cls, theta, X, index, eps=1e-5):
        plus = kernel_cls()
        plus.theta = theta + eps * np.eye(2)[index]
        minus = kernel_cls()
        minus.theta = theta - eps * np.eye(2)[index]
        return (plus(X, X) - minus(X, X)) / (2 * eps)

    def test_gradients_match_finite_differences(self, kernel_cls, rng):
        X = rng.uniform(0, 3, size=(8, 2))
        kernel = kernel_cls(signal_std=1.3, lengthscale=0.9)
        grads = kernel.gradients(X)
        for j in range(2):
            numeric = self._finite_difference(kernel_cls, kernel.theta, X, j)
            assert np.allclose(grads[j], numeric, atol=1e-5)

    def test_second_derivatives_match_finite_differences(self, kernel_cls, rng):
        X = rng.uniform(0, 3, size=(6, 2))
        kernel = kernel_cls(signal_std=1.1, lengthscale=1.4)
        r = pairwise_dists(X, X)
        seconds = kernel.second_derivatives_from_distances(r, kernel.from_distances(r))
        eps = 1e-4
        for j in range(2):
            plus = kernel_cls()
            plus.theta = kernel.theta + eps * np.eye(2)[j]
            minus = kernel_cls()
            minus.theta = kernel.theta - eps * np.eye(2)[j]
            numeric = (plus(X, X) - 2 * kernel(X, X) + minus(X, X)) / eps**2
            assert np.allclose(seconds[j], numeric, atol=1e-4)


@pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
class TestFromDistances:
    """Evaluation from precomputed distances is the closed-form expression
    ``signal_std**2 * corr(r / lengthscale)`` and its derivatives, bit for bit."""

    def test_covariance(self, kernel_cls, rng):
        X1, X2 = rng.uniform(0, 3, size=(9, 2)), rng.uniform(0, 3, size=(7, 2))
        kernel = kernel_cls(signal_std=1.3, lengthscale=0.9)
        r = np.sqrt(pairwise_sq_dists(X1, X2))
        kept = r.copy()
        expected = kernel.signal_std**2 * kernel._correlate(r / kernel.lengthscale)
        assert kernel.from_distances(r).tobytes() == expected.tobytes()
        assert r.tobytes() == kept.tobytes()  # not consumed without out=
        assert pairwise_dists(X1, X2).tobytes() == kept.tobytes()
        # The prediction route (one GEMM) agrees to rounding, not bitwise.
        assert np.max(np.abs(kernel(X1, X2) - expected)) <= 1e-13 * kernel.signal_std**2

    def test_derivatives(self, kernel_cls, rng):
        X = rng.uniform(0, 3, size=(8, 2))
        kernel = kernel_cls(signal_std=0.7, lengthscale=1.6)
        r = np.sqrt(pairwise_sq_dists(X, X))
        u = r / kernel.lengthscale
        s2 = kernel.signal_std**2
        K = s2 * kernel._correlate(u.copy())
        expected = [
            [2.0 * K, s2 * kernel._dcorr_dlog_lengthscale(u)],
            [4.0 * K, s2 * kernel._d2corr_dlog_lengthscale2(u)],
        ]
        K_r = kernel.from_distances(r)
        got = [
            [kernel.gradients(X), kernel.gradients_from_distances(r, K_r)],
            [kernel.second_derivatives_from_distances(r, K_r)],
        ]
        for want, pair in zip(expected, got):
            for derivatives in pair:
                assert [d.tobytes() for d in derivatives] == [w.tobytes() for w in want]


class TestSpectralMoments:
    def test_se_value(self):
        assert SquaredExponential(lengthscale=2.0).second_spectral_moment() == pytest.approx(0.25)

    def test_matern_ordering(self):
        # For the same lengthscale, rougher kernels have larger spectral moments.
        se = SquaredExponential(lengthscale=1.0).second_spectral_moment()
        m52 = Matern52(lengthscale=1.0).second_spectral_moment()
        m32 = Matern32(lengthscale=1.0).second_spectral_moment()
        assert m32 > m52 > se

    def test_matches_numerical_curvature(self):
        # lambda_2 = -corr''(0); check numerically for the SE kernel.
        kernel = SquaredExponential(signal_std=1.0, lengthscale=1.7)
        h = 1e-4
        k0 = kernel(np.array([[0.0]]), np.array([[0.0]]))[0, 0]
        kh = kernel(np.array([[0.0]]), np.array([[h]]))[0, 0]
        curvature = 2 * (k0 - kh) / h**2
        assert curvature == pytest.approx(kernel.second_spectral_moment(), rel=1e-3)


class TestFactory:
    def test_make_kernel_by_name(self):
        assert isinstance(make_kernel("squared_exponential"), SquaredExponential)
        assert isinstance(make_kernel("rbf"), SquaredExponential)
        assert isinstance(make_kernel("matern32"), Matern32)
        assert isinstance(make_kernel("MATERN52"), Matern52)

    def test_unknown_name_rejected(self):
        with pytest.raises(GPError):
            make_kernel("linear")
