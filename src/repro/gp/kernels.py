"""Covariance functions (kernels) for Gaussian-process emulators.

The paper's default kernel is the isotropic squared-exponential
``k(x, x') = sigma_f^2 * exp(-||x - x'||^2 / (2 l^2))`` (Section 3.2) and it
points to Matérn kernels for less smooth UDFs.  Hyperparameters are handled
in log space throughout (``theta = [log sigma_f, log l]``) so that the MLE
optimisation of Section 3.4 is unconstrained.

Each kernel exposes, in addition to evaluation:

* ``gradients``   — ``dK/dtheta_j`` for the marginal-likelihood gradient,
* ``second_derivatives`` — ``d^2K/dtheta_j^2`` for the Newton-step retraining
  heuristic of Section 5.3, and
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
        """Covariance matrix ``K[i, j] = k(X1[i], X2[j])``.

        Every step after the squared distances writes into their array:
        the same elementwise operations on the same operands as the
        expression ``signal_std**2 * corr(sqrt(sq) / lengthscale)``, without
        a fresh matrix per step.
        """
        u = pairwise_sq_dists(X1, X2)
        np.sqrt(u, out=u)
        np.divide(u, self.lengthscale, out=u)
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
        r = np.sqrt(pairwise_sq_dists(X, X))
        u = r / self.lengthscale
        s2 = self.signal_std**2
        K = s2 * self._correlate(u.copy())
        dK_dlog_sf = 2.0 * K
        dK_dlog_l = s2 * self._dcorr_dlog_lengthscale(u)
        return [dK_dlog_sf, dK_dlog_l]

    def second_derivatives(self, X: np.ndarray) -> list[np.ndarray]:
        """``[d2K/d(log sigma_f)^2, d2K/d(log l)^2]`` at ``K(X, X)``."""
        r = np.sqrt(pairwise_sq_dists(X, X))
        u = r / self.lengthscale
        s2 = self.signal_std**2
        K = s2 * self._correlate(u.copy())
        d2K_dlog_sf2 = 4.0 * K
        d2K_dlog_l2 = s2 * self._d2corr_dlog_lengthscale2(u)
        return [d2K_dlog_sf2, d2K_dlog_l2]

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

    def _dcorr_dlog_lengthscale(self, u: np.ndarray) -> np.ndarray:
        return u**2 * np.exp(-0.5 * u**2)

    def _d2corr_dlog_lengthscale2(self, u: np.ndarray) -> np.ndarray:
        u2 = u**2
        return (u2**2 - 2.0 * u2) * np.exp(-0.5 * u2)

    def second_spectral_moment(self) -> float:
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
