"""Covariance functions (kernels) for Gaussian-process emulators.

The paper's default kernel is the isotropic squared-exponential
``k(x, x') = sigma_f^2 * exp(-||x - x'||^2 / (2 l^2))`` (Section 3.2) and it
points to Matérn kernels for less smooth UDFs.  Hyperparameters are handled
in log space throughout (``theta = [log sigma_f, log l]``) so that the MLE
optimisation of Section 3.4 is unconstrained.

Two evaluation routes build a covariance block.  ``kernel(X1, X2)`` — the
prediction blocks, one per tuple — takes ``-u^2 / 2`` from one GEMM on
centred, lengthscale-scaled operands (:func:`neg_half_sq_scaled_dists`).
``kernel.from_distances(pairwise_dists(X1, X2))`` is the route every
training block takes (the fit's objective, refits, incremental updates,
log-dets, local inverses): a fit evaluates one distance matrix under many
hyperparameters, so the factorised matrices must be the objective's
evaluations bit for bit.  The two agree to rounding, not bitwise.

Each kernel exposes, in addition to evaluation:

* ``gradients``   — ``dK/dtheta_j`` for the marginal-likelihood gradient,
* ``second_derivatives_from_distances`` — ``d^2K/dtheta_j^2`` for the
  Newton-step retraining heuristic of Section 5.3, and
* ``second_spectral_moment`` — the variance of the derivative of the
  standardised process, needed by the Euler-characteristic approximation of
  the simultaneous confidence band (Section 4.2).
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

from repro.exceptions import GPError


def pairwise_sq_dists(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Matrix of squared Euclidean distances between rows of ``X1`` and ``X2``."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    if X1.shape[1] != X2.shape[1]:
        raise GPError(
            f"dimension mismatch: {X1.shape[1]} vs {X2.shape[1]} columns"
        )
    sq1 = np.sum(X1**2, axis=1)[:, None]
    sq2 = np.sum(X2**2, axis=1)[None, :]
    sq = sq1 + sq2
    sq -= 2.0 * X1 @ X2.T
    return np.maximum(sq, 0.0, out=sq)


def pairwise_dists(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Matrix of Euclidean distances between rows of ``X1`` and ``X2``."""
    sq = pairwise_sq_dists(X1, X2)
    return np.sqrt(sq, out=sq)


def neg_half_sq_scaled_dists(X1: np.ndarray, X2: np.ndarray, lengthscale: float) -> np.ndarray:
    """``-|x1 - x2|^2 / (2 l^2)`` for every pair of rows, from one GEMM.

    Both operands are centred on ``X2``'s mean and divided by ``l``; the
    augmented columns ``[a; -|a|^2/2; 1]`` and ``[b; 1; -|b|^2/2]`` then
    give ``a.b - |a|^2/2 - |b|^2/2`` in one matrix product, clamped at 0
    above.  Centring keeps the rounding near ``eps * rho^2`` for points
    within ``rho`` lengthscales of ``X2``'s mean, wherever the points sit.
    """
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    d = X1.shape[1]
    if X2.shape[1] != d:
        raise GPError(f"dimension mismatch: {d} vs {X2.shape[1]} columns")
    centre = X2.mean(axis=0)[:, None] if X2.shape[0] else np.zeros((d, 1))
    # Operands stored transposed, (d + 2) contiguous rows each: filling
    # rows is several times cheaper than filling strided columns.
    A, B = np.empty((d + 2, X1.shape[0])), np.empty((d + 2, X2.shape[0]))
    for X, T, norm, one in ((X1, A, d, d + 1), (X2, B, d + 1, d)):
        a = np.subtract(X.T, centre, out=T[:d])
        np.divide(a, lengthscale, out=a)
        np.einsum("ij,ij->j", a, a, out=T[norm])
        T[norm] *= -0.5
        T[one] = 1.0
    return _clamp_above(A.T @ B, 0.0)


def _clamp_above(a: np.ndarray, limit: float) -> np.ndarray:
    """``np.minimum(a, limit, out=a)`` for arrays almost never above ``limit``.

    A comparison pass, and a write only where one exceeds it: about half
    the time of ``np.minimum``, which writes every element.
    """
    over = a > limit
    if over.any():
        a[over] = limit
    return a


class Kernel(abc.ABC):
    """Stationary covariance function with log-space hyperparameters."""

    #: Human-readable hyperparameter names, in the order used by ``theta``.
    hyperparameter_names: tuple[str, ...] = ("log_signal_std", "log_lengthscale")

    def __init__(self, signal_std: float = 1.0, lengthscale: float = 1.0):
        if signal_std <= 0 or lengthscale <= 0:
            raise GPError("signal_std and lengthscale must be positive")
        self.signal_std = float(signal_std)
        self.lengthscale = float(lengthscale)

    # -- hyperparameter vector -------------------------------------------------
    @property
    def theta(self) -> np.ndarray:
        """Log-space hyperparameter vector ``[log sigma_f, log l]``."""
        return np.array([math.log(self.signal_std), math.log(self.lengthscale)])

    @theta.setter
    def theta(self, value: Sequence[float]) -> None:
        """Set ``signal_std`` and ``lengthscale`` from ``[log sigma_f, log l]``."""
        value = np.asarray(value, dtype=float)
        if value.shape != (2,):
            raise GPError(f"theta must have shape (2,), got {value.shape}")
        self.signal_std = float(np.exp(value[0]))
        self.lengthscale = float(np.exp(value[1]))

    def clone(self) -> "Kernel":
        """Copy with the same hyperparameters."""
        return type(self)(self.signal_std, self.lengthscale)

    # -- evaluation ---------------------------------------------------------
    @abc.abstractmethod
    def _correlate(self, u: np.ndarray) -> np.ndarray:
        """Overwrite ``u = r / lengthscale`` with the correlation (unit signal).

        Consumes its argument and returns it: a caller that still needs
        ``u`` passes a copy.
        """

    def __call__(self, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
        """Covariance matrix ``K[i, j] = k(X1[i], X2[j])``, every entry in ``[0, sigma_f^2]``.

        The prediction route: :func:`neg_half_sq_scaled_dists`, then the
        correlation in the product's own array.  Within rounding of
        ``from_distances(pairwise_dists(X1, X2))``, the training route.
        """
        return self._from_neg_half_sq(neg_half_sq_scaled_dists(X1, X2, self.lengthscale))

    def _from_neg_half_sq(self, E: np.ndarray) -> np.ndarray:
        """Overwrite ``E = -u^2 / 2`` (``u = r / l``) with the covariance."""
        u = np.sqrt(np.multiply(E, -2.0, out=E), out=E)
        corr = _clamp_above(self._correlate(u), 1.0)
        return np.multiply(corr, self.signal_std**2, out=corr)

    def from_distances(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Covariance matrix from the Euclidean distances ``r``.

        The same elementwise operations on the same operands as the
        expression ``signal_std**2 * corr(r / lengthscale)``, in one array:
        ``out`` (which may be ``r`` itself) or, by default, a fresh one, so a
        caller that evaluates several hyperparameters reuses one ``r``.
        """
        u = np.divide(r, self.lengthscale, out=out)
        return np.multiply(self._correlate(u), self.signal_std**2, out=u)

    def diag(self, X: np.ndarray) -> np.ndarray:
        """Diagonal of ``k(X, X)`` without forming the full matrix."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.full(X.shape[0], self.signal_std**2)

    # -- derivatives for training -------------------------------------------
    @abc.abstractmethod
    def _dcorr_dlog_lengthscale(self, u: np.ndarray) -> np.ndarray:
        """d corr / d(log l) expressed through ``u = r/l`` (unit signal)."""

    @abc.abstractmethod
    def _d2corr_dlog_lengthscale2(self, u: np.ndarray) -> np.ndarray:
        """d^2 corr / d(log l)^2 expressed through ``u = r/l`` (unit signal)."""

    def gradients(self, X: np.ndarray) -> list[np.ndarray]:
        """``[dK/d(log sigma_f), dK/d(log l)]`` evaluated at ``K(X, X)``."""
        r = pairwise_dists(X, X)
        return self.gradients_from_distances(r, self.from_distances(r))

    def gradients_from_distances(self, r: np.ndarray, K: np.ndarray) -> list[np.ndarray]:
        """:meth:`gradients` from the distances ``r`` and ``K = from_distances(r)``."""
        u = r / self.lengthscale
        return [2.0 * K, self.signal_std**2 * self._dcorr_dlog_lengthscale(u)]

    def second_derivatives_from_distances(
        self, r: np.ndarray, K: np.ndarray
    ) -> list[np.ndarray]:
        """``[d2K/d(log sigma_f)^2, d2K/d(log l)^2]`` from the distances ``r``
        and ``K = from_distances(r)``."""
        u = r / self.lengthscale
        return [4.0 * K, self.signal_std**2 * self._d2corr_dlog_lengthscale2(u)]

    # -- spectral information for confidence bands -------------------------------
    @abc.abstractmethod
    def second_spectral_moment(self) -> float:
        """Variance of the derivative of the standardised (unit-variance) process.

        For an isotropic kernel ``k(r)`` this equals ``-k''(0) / k(0)``; it
        drives the expected Euler characteristic of excursion sets used to
        calibrate simultaneous confidence bands.
        """

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(signal_std={self.signal_std:.4g}, "
            f"lengthscale={self.lengthscale:.4g})"
        )


class SquaredExponential(Kernel):
    """Squared-exponential (RBF) kernel — the paper's default (Section 3.2)."""

    def _correlate(self, u: np.ndarray) -> np.ndarray:
        # exp(-0.5 * u**2)
        np.multiply(u, u, out=u)
        np.multiply(u, -0.5, out=u)
        return np.exp(u, out=u)

    def _from_neg_half_sq(self, E: np.ndarray) -> np.ndarray:
        return np.multiply(np.exp(E, out=E), self.signal_std**2, out=E)

    def _dcorr_dlog_lengthscale(self, u: np.ndarray) -> np.ndarray:
        return u**2 * np.exp(-0.5 * u**2)

    def _d2corr_dlog_lengthscale2(self, u: np.ndarray) -> np.ndarray:
        u2 = u**2
        return (u2**2 - 2.0 * u2) * np.exp(-0.5 * u2)

    def second_spectral_moment(self) -> float:
        """``1 / l^2``."""
        return 1.0 / self.lengthscale**2


class Matern32(Kernel):
    """Matérn kernel with smoothness 3/2 (once mean-square differentiable)."""

    _SQRT3 = math.sqrt(3.0)

    def _correlate(self, u: np.ndarray) -> np.ndarray:
        # (1 + v) * exp(-v) with v = sqrt(3) u
        v = np.multiply(u, self._SQRT3, out=u)
        decay = np.negative(v)
        np.exp(decay, out=decay)
        np.add(v, 1.0, out=v)
        return np.multiply(v, decay, out=v)

    def _dcorr_dlog_lengthscale(self, u: np.ndarray) -> np.ndarray:
        v = self._SQRT3 * u
        return v**2 * np.exp(-v)

    def _d2corr_dlog_lengthscale2(self, u: np.ndarray) -> np.ndarray:
        v = self._SQRT3 * u
        return v**2 * (v - 2.0) * np.exp(-v)

    def second_spectral_moment(self) -> float:
        """``3 / l^2``."""
        return 3.0 / self.lengthscale**2


class Matern52(Kernel):
    """Matérn kernel with smoothness 5/2 (twice mean-square differentiable)."""

    _SQRT5 = math.sqrt(5.0)

    def _correlate(self, u: np.ndarray) -> np.ndarray:
        # (1 + v + v**2 / 3) * exp(-v) with v = sqrt(5) u
        v = np.multiply(u, self._SQRT5, out=u)
        decay = np.negative(v)
        np.exp(decay, out=decay)
        third = np.multiply(v, v)
        np.divide(third, 3.0, out=third)
        np.add(v, 1.0, out=v)
        np.add(v, third, out=v)
        return np.multiply(v, decay, out=v)

    def _dcorr_dlog_lengthscale(self, u: np.ndarray) -> np.ndarray:
        v = self._SQRT5 * u
        return v**2 * (1.0 + v) / 3.0 * np.exp(-v)

    def _d2corr_dlog_lengthscale2(self, u: np.ndarray) -> np.ndarray:
        v = self._SQRT5 * u
        return v**2 * (v**2 - 2.0 * v - 2.0) / 3.0 * np.exp(-v)

    def second_spectral_moment(self) -> float:
        """``5 / (3 l^2)``."""
        return 5.0 / (3.0 * self.lengthscale**2)


KERNELS = {
    "squared_exponential": SquaredExponential,
    "rbf": SquaredExponential,
    "matern32": Matern32,
    "matern52": Matern52,
}


def make_kernel(name: str, signal_std: float = 1.0, lengthscale: float = 1.0) -> Kernel:
    """Construct a kernel by name (``squared_exponential``, ``matern32``, ...)."""
    key = name.lower()
    if key not in KERNELS:
        raise GPError(f"unknown kernel {name!r}; choose one of {sorted(set(KERNELS))}")
    return KERNELS[key](signal_std=signal_std, lengthscale=lengthscale)
