"""Unit tests for the GP linear-algebra helpers."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from repro.exceptions import GPError
from repro.gp.linalg import (
    block_inverse_update,
    block_inverse_update_multi,
    inverse_from_cholesky,
    jittered_cholesky,
    log_det_from_cholesky,
    solve_cholesky,
    symmetrize,
)


def random_spd(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


class TestJitteredCholesky:
    def test_exact_for_spd(self):
        M = random_spd(6)
        L, jitter = jittered_cholesky(M)
        assert jitter == 0.0
        assert np.allclose(L @ L.T, M)

    def test_adds_jitter_for_singular(self):
        M = np.ones((4, 4))  # rank 1, not PD
        L, jitter = jittered_cholesky(M)
        assert jitter > 0.0
        assert np.allclose(L @ L.T, M + jitter * np.eye(4), atol=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(GPError):
            jittered_cholesky(np.ones((2, 3)))

    def test_gives_up_on_hopeless_matrix(self):
        M = -np.eye(3)
        with pytest.raises(GPError):
            jittered_cholesky(M, max_tries=2)


class TestSolvers:
    def test_solve_cholesky(self):
        M = random_spd(5, seed=1)
        L, _ = jittered_cholesky(M)
        b = np.arange(5, dtype=float)
        x = solve_cholesky(L, b)
        assert np.allclose(M @ x, b)

    def test_inverse_from_cholesky(self):
        M = random_spd(4, seed=2)
        L, _ = jittered_cholesky(M)
        inv = inverse_from_cholesky(L)
        assert np.allclose(M @ inv, np.eye(4), atol=1e-10)

    def test_log_det(self):
        M = random_spd(5, seed=3)
        L, _ = jittered_cholesky(M)
        sign, expected = np.linalg.slogdet(M)
        assert sign > 0
        assert log_det_from_cholesky(L) == pytest.approx(expected)


class TestInverseFromCholeskyIdentity:
    """The LAPACK-direct solve and inverse are the two ``solve_triangular``
    calls, bit for bit, and fail as they do."""

    @staticmethod
    def _via_solve_triangular(L: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
        y = solve_triangular(L, np.eye(L.shape[0]) if b is None else b, lower=True)
        return solve_triangular(L.T, y, lower=False)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("columns", [None, 1, 3])
    def test_solve_bitwise_equal_and_leaves_b(self, order, columns):
        rng = np.random.default_rng(11)
        L = np.asarray(np.linalg.cholesky(random_spd(9, seed=9)), order=order)
        b = rng.normal(size=9 if columns is None else (9, columns))
        kept = b.copy()
        got = solve_cholesky(L, b)
        assert got.shape == b.shape
        assert got.tobytes() == self._via_solve_triangular(L, b).tobytes()
        assert b.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 130])
    def test_bitwise_equal_to_solve_triangular(self, n, order):
        L = np.asarray(np.linalg.cholesky(random_spd(n, seed=n)), order=order)
        got = inverse_from_cholesky(L)
        expected = self._via_solve_triangular(L)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert got.flags.f_contiguous == expected.flags.f_contiguous

    def test_bitwise_equal_on_a_strided_factor(self):
        L = np.linalg.cholesky(random_spd(12, seed=5))
        strided = np.zeros((12, 24))
        strided[:, ::2] = L
        view = strided[:, ::2]
        assert inverse_from_cholesky(view).tobytes() == self._via_solve_triangular(view).tobytes()

    @pytest.mark.parametrize(
        "factor, error",
        [
            (np.array([[1.0, 0.0], [np.nan, 1.0]]), ValueError),
            (np.array([[np.inf, 0.0], [0.5, 1.0]]), ValueError),
            (np.array([[1.0, 0.0], [1.0, 0.0]]), np.linalg.LinAlgError),
            (np.asfortranarray([[2.0, 0.0], [1.0, 0.0]]), np.linalg.LinAlgError),
        ],
        ids=["nan", "inf", "singular-C", "singular-F"],
    )
    def test_raises_as_solve_triangular_does(self, factor, error):
        with pytest.raises(error) as ours:
            inverse_from_cholesky(factor)
        with pytest.raises(error) as theirs:
            self._via_solve_triangular(factor)
        assert str(ours.value) == str(theirs.value)


class TestBlockInverseUpdate:
    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(4)
        n = 8
        M = random_spd(n, seed=4)
        K_inv = np.linalg.inv(M)
        k_new = rng.normal(size=n)
        k_self = float(n + rng.uniform(1.0, 2.0))
        grown = np.block([[M, k_new[:, None]], [k_new[None, :], np.array([[k_self]])]])
        expected = np.linalg.inv(grown)
        updated = block_inverse_update(K_inv, k_new, k_self)
        assert np.allclose(updated, expected, atol=1e-8)

    def test_repeated_updates_stay_accurate(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(0, 5, size=(12, 1))

        def kernel(a, b):
            return np.exp(-0.5 * (a - b.T) ** 2)

        nugget = 1e-6
        start = 4
        M = kernel(points[:start], points[:start]) + nugget * np.eye(start)
        K_inv = np.linalg.inv(M)
        for i in range(start, points.shape[0]):
            k_new = kernel(points[:i], points[i : i + 1]).ravel()
            k_self = 1.0 + nugget
            K_inv = block_inverse_update(K_inv, k_new, k_self)
        full = kernel(points, points) + nugget * np.eye(points.shape[0])
        # The kernel matrix is poorly conditioned (nearby points), so compare
        # with a relative tolerance.
        assert np.allclose(K_inv, np.linalg.inv(full), rtol=1e-3, atol=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GPError):
            block_inverse_update(np.eye(3), np.zeros(2), 1.0)

    def test_degenerate_point_rejected(self):
        M = np.eye(2)
        # New point identical to an existing one => zero Schur complement.
        with pytest.raises(GPError):
            block_inverse_update(np.linalg.inv(M), np.array([1.0, 0.0]), 1.0)


class TestSymmetrize:
    def test_result_is_symmetric(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        S = symmetrize(A)
        assert np.allclose(S, S.T)
        assert np.allclose(S, [[1.0, 1.0], [1.0, 1.0]])


class TestJitterFailureMessage:
    def test_reports_final_jitter_tried(self):
        # -I never becomes PD for jitters far below 1; with the default
        # initial jitter of 1e-10 and 8 escalations the final attempt uses
        # 1e-3, and the error message must say so.
        with pytest.raises(GPError, match=r"final jitter 0\.001\b"):
            jittered_cholesky(-np.eye(3), initial_jitter=1e-10, max_tries=8)


class TestBlockInverseUpdateMulti:
    def assemble(self, K, K_cross, K_block):
        return np.block([[K, K_cross], [K_cross.T, K_block]])

    def test_matches_direct_inverse(self):
        full = random_spd(9, seed=5)
        K, K_cross, K_block = full[:6, :6], full[:6, 6:], full[6:, 6:]
        updated = block_inverse_update_multi(np.linalg.inv(K), K_cross, K_block)
        assert np.allclose(updated, np.linalg.inv(self.assemble(K, K_cross, K_block)),
                           atol=1e-8)

    def test_matches_sequence_of_rank_one_updates(self):
        full = random_spd(7, seed=6)
        K = full[:4, :4]
        blocked = block_inverse_update_multi(
            np.linalg.inv(K), full[:4, 4:], full[4:, 4:]
        )
        sequential = np.linalg.inv(K)
        for j in range(4, 7):
            sequential = block_inverse_update(
                sequential, full[:j, j], float(full[j, j])
            )
        assert np.allclose(blocked, sequential, atol=1e-8)

    def test_single_column_matches_rank_one(self):
        full = random_spd(5, seed=7)
        K = full[:4, :4]
        blocked = block_inverse_update_multi(
            np.linalg.inv(K), full[:4, 4:5], full[4:5, 4:5]
        )
        rank_one = block_inverse_update(np.linalg.inv(K), full[:4, 4], float(full[4, 4]))
        assert np.allclose(blocked, rank_one, atol=1e-10)

    def test_rank_deficient_block_raises_typed_error(self):
        K = random_spd(4, seed=8)
        K_inv = np.linalg.inv(K)
        rng = np.random.default_rng(8)
        x = rng.normal(size=4)
        # Two identical new points: the Schur complement is singular.
        K_cross = np.column_stack([x, x])
        K_block = np.full((2, 2), 2.0)
        with pytest.raises(GPError, match="rank-deficient"):
            block_inverse_update_multi(K_inv, K_cross, K_block)

    def test_validates_shapes(self):
        K_inv = np.eye(3)
        with pytest.raises(GPError):
            block_inverse_update_multi(K_inv, np.ones((2, 2)), np.eye(2))
        with pytest.raises(GPError):
            block_inverse_update_multi(K_inv, np.ones((3, 2)), np.eye(3))


class TestGaussianProcessAddPoints:
    def test_add_points_matches_full_refit(self):
        from repro.gp.kernels import SquaredExponential
        from repro.gp.regression import GaussianProcess

        rng = np.random.default_rng(12)
        X = rng.uniform(0, 10, size=(12, 2))
        y = np.sin(X[:, 0]) + X[:, 1] * 0.1
        # center_targets=False: the incremental path keeps its mean offset
        # until the next full recompute, so only the uncentred model admits
        # an exact comparison against a from-scratch refit.
        incremental = GaussianProcess(
            kernel=SquaredExponential(1.0, 2.0), center_targets=False
        ).fit(X[:8], y[:8])
        incremental.add_points(X[8:], y[8:])
        refit = GaussianProcess(
            kernel=SquaredExponential(1.0, 2.0), center_targets=False
        ).fit(X, y)
        probe = rng.uniform(0, 10, size=(5, 2))
        m1, s1 = incremental.predict(probe)
        m2, s2 = refit.predict(probe)
        assert np.allclose(m1, m2, atol=1e-7)
        assert np.allclose(s1, s2, atol=1e-6)

    def test_add_points_duplicate_block_falls_back_to_refit(self):
        from repro.gp.kernels import SquaredExponential
        from repro.gp.regression import GaussianProcess

        rng = np.random.default_rng(13)
        X = rng.uniform(0, 10, size=(6, 1))
        y = np.cos(X[:, 0])
        gp = GaussianProcess(kernel=SquaredExponential(1.0, 2.0)).fit(X, y)
        duplicate = np.vstack([X[0], X[0]])
        # Rank-deficient against the training set: must not raise, and the
        # model must keep answering (jittered full refit under the hood).
        gp.add_points(duplicate, np.array([y[0], y[0]]))
        assert gp.n_training == 8
        mean, std = gp.predict(X[:2])
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))

    def test_emulator_add_training_points_absorbs_the_block(self):
        from repro.core.emulator import GPEmulator
        from repro.udf.base import UDF

        udf = UDF(lambda x: float(x[0]) ** 2, dimension=1, name="sq",
                  domain=(np.array([-2.0]), np.array([2.0])))
        emulator = GPEmulator(udf)
        emulator.train_initial(5, design="random", random_state=3,
                               optimize_hyperparameters=False)
        values = emulator.add_training_points(np.array([[0.5], [-1.5], [1.1]]))
        assert values.shape == (3,)
        assert emulator.n_training == 8
        assert np.array_equal(emulator.gp.y_train[5:], values)
