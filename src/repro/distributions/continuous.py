"""Continuous univariate distributions used to model uncertain attributes.

The paper's default workload uses Gaussian-distributed uncertain attributes
(Section 6.1B) and additionally evaluates exponential and Gamma inputs
(Expt 4).  Each class wraps the corresponding analytic formulas rather than
delegating to ``scipy.stats`` objects at sampling time, keeping the hot
sampling path on ``numpy.random.Generator`` which is considerably faster for
the per-tuple sample counts (thousands) the algorithms require.

``scipy.special`` is imported at module level (the Gaussian CDF and
quantile need it, and the engine loads it anyway).  ``scipy.stats`` is
imported inside :class:`Gamma`'s ``pdf`` / ``cdf`` / ``ppf`` and
:class:`TruncatedGaussian`'s constructor, the only places that use it, so
``import repro`` does not pay for it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import special

from repro.distributions.base import UnivariateDistribution
from repro.exceptions import DistributionError
from repro.rng import RandomState, as_generator


class Gaussian(UnivariateDistribution):
    """Normal distribution ``N(mu, sigma^2)``."""

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0 or not math.isfinite(sigma):
            raise DistributionError(f"sigma must be positive and finite, got {sigma}")
        if not math.isfinite(mu):
            raise DistributionError(f"mu must be finite, got {mu}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, size: int, random_state: RandomState = None) -> np.ndarray:
        size = self._validated_size(size)
        rng = as_generator(random_state)
        return rng.normal(self.mu, self.sigma, size=(size, 1))

    def mean(self) -> np.ndarray:
        return np.array([self.mu])

    def variance(self) -> float:
        return self.sigma**2

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z**2) / (self.sigma * math.sqrt(2 * math.pi))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 0.5 * (1.0 + special.erf((x - self.mu) / (self.sigma * math.sqrt(2))))

    def ppf(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return self.mu + self.sigma * math.sqrt(2) * special.erfinv(2 * q - 1)

    def __repr__(self) -> str:
        return f"Gaussian(mu={self.mu:g}, sigma={self.sigma:g})"


class Uniform(UnivariateDistribution):
    """Uniform distribution on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if not (math.isfinite(low) and math.isfinite(high)):
            raise DistributionError("uniform bounds must be finite")
        if high <= low:
            raise DistributionError(
                f"high ({high}) must exceed low ({low}) for a Uniform distribution"
            )
        self.low = float(low)
        self.high = float(high)

    def sample(self, size: int, random_state: RandomState = None) -> np.ndarray:
        size = self._validated_size(size)
        rng = as_generator(random_state)
        return rng.uniform(self.low, self.high, size=(size, 1))

    def mean(self) -> np.ndarray:
        return np.array([(self.low + self.high) / 2.0])

    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (x >= self.low) & (x <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)

    def ppf(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return self.low + q * (self.high - self.low)

    def __repr__(self) -> str:
        return f"Uniform(low={self.low:g}, high={self.high:g})"


class Exponential(UnivariateDistribution):
    """Exponential distribution with rate ``rate`` shifted by ``shift``.

    The shift allows placing the distribution inside the synthetic function
    domain ``[0, 10]`` used in the paper's sensitivity experiments.
    """

    def __init__(self, rate: float, shift: float = 0.0):
        if rate <= 0 or not math.isfinite(rate):
            raise DistributionError(f"rate must be positive and finite, got {rate}")
        self.rate = float(rate)
        self.shift = float(shift)

    def sample(self, size: int, random_state: RandomState = None) -> np.ndarray:
        size = self._validated_size(size)
        rng = as_generator(random_state)
        return self.shift + rng.exponential(1.0 / self.rate, size=(size, 1))

    def mean(self) -> np.ndarray:
        return np.array([self.shift + 1.0 / self.rate])

    def variance(self) -> float:
        return 1.0 / self.rate**2

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float) - self.shift
        return np.where(x >= 0, self.rate * np.exp(-self.rate * x), 0.0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float) - self.shift
        return np.where(x >= 0, 1.0 - np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def ppf(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return self.shift - np.log1p(-q) / self.rate

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate:g}, shift={self.shift:g})"


class Gamma(UnivariateDistribution):
    """Gamma distribution with ``shape`` and ``scale``, optionally shifted."""

    def __init__(self, shape: float, scale: float, shift: float = 0.0):
        if shape <= 0 or scale <= 0:
            raise DistributionError(
                f"shape and scale must be positive, got shape={shape}, scale={scale}"
            )
        self.shape = float(shape)
        self.scale = float(scale)
        self.shift = float(shift)

    def sample(self, size: int, random_state: RandomState = None) -> np.ndarray:
        size = self._validated_size(size)
        rng = as_generator(random_state)
        return self.shift + rng.gamma(self.shape, self.scale, size=(size, 1))

    def mean(self) -> np.ndarray:
        return np.array([self.shift + self.shape * self.scale])

    def variance(self) -> float:
        return self.shape * self.scale**2

    def pdf(self, x: np.ndarray) -> np.ndarray:
        from scipy import stats

        x = np.asarray(x, dtype=float) - self.shift
        return stats.gamma.pdf(x, a=self.shape, scale=self.scale)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        from scipy import stats

        x = np.asarray(x, dtype=float) - self.shift
        return stats.gamma.cdf(x, a=self.shape, scale=self.scale)

    def ppf(self, q: np.ndarray) -> np.ndarray:
        from scipy import stats

        q = np.asarray(q, dtype=float)
        return self.shift + stats.gamma.ppf(q, a=self.shape, scale=self.scale)

    def __repr__(self) -> str:
        return (
            f"Gamma(shape={self.shape:g}, scale={self.scale:g}, shift={self.shift:g})"
        )


class TruncatedGaussian(UnivariateDistribution):
    """Gaussian truncated to ``[low, high]``.

    Used to keep uncertain attributes inside physically meaningful ranges,
    e.g. a redshift that must remain positive.
    """

    def __init__(self, mu: float, sigma: float, low: float, high: float):
        from scipy import stats

        if sigma <= 0:
            raise DistributionError(f"sigma must be positive, got {sigma}")
        if high <= low:
            raise DistributionError(f"high ({high}) must exceed low ({low})")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.low = float(low)
        self.high = float(high)
        self._a = (self.low - self.mu) / self.sigma
        self._b = (self.high - self.mu) / self.sigma
        self._dist = stats.truncnorm(self._a, self._b, loc=self.mu, scale=self.sigma)

    def sample(self, size: int, random_state: RandomState = None) -> np.ndarray:
        size = self._validated_size(size)
        rng = as_generator(random_state)
        # Inverse-CDF sampling keeps the draw on our Generator instance.
        u = rng.uniform(0.0, 1.0, size=(size, 1))
        return self._dist.ppf(u)

    def mean(self) -> np.ndarray:
        return np.array([float(self._dist.mean())])

    def variance(self) -> float:
        return float(self._dist.var())

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return self._dist.pdf(np.asarray(x, dtype=float))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return self._dist.cdf(np.asarray(x, dtype=float))

    def ppf(self, q: np.ndarray) -> np.ndarray:
        return self._dist.ppf(np.asarray(q, dtype=float))

    def __repr__(self) -> str:
        return (
            f"TruncatedGaussian(mu={self.mu:g}, sigma={self.sigma:g}, "
            f"low={self.low:g}, high={self.high:g})"
        )


class GaussianMixture1D(UnivariateDistribution):
    """Univariate Gaussian mixture, useful for multi-modal uncertain inputs."""

    def __init__(
        self,
        means: Sequence[float],
        sigmas: Sequence[float],
        weights: Sequence[float] | None = None,
    ):
        means_arr = np.asarray(means, dtype=float)
        sigmas_arr = np.asarray(sigmas, dtype=float)
        if means_arr.ndim != 1 or means_arr.size == 0:
            raise DistributionError("means must be a non-empty 1-D sequence")
        if sigmas_arr.shape != means_arr.shape:
            raise DistributionError("means and sigmas must have the same length")
        if np.any(sigmas_arr <= 0):
            raise DistributionError("all mixture sigmas must be positive")
        if weights is None:
            weights_arr = np.full(means_arr.size, 1.0 / means_arr.size)
        else:
            weights_arr = np.asarray(weights, dtype=float)
            if weights_arr.shape != means_arr.shape:
                raise DistributionError("weights must match the number of components")
            if np.any(weights_arr < 0):
                raise DistributionError("mixture weights must be non-negative")
            total = weights_arr.sum()
            if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
                if total <= 0:
                    raise DistributionError("mixture weights must sum to a positive value")
                weights_arr = weights_arr / total
        self.means = means_arr
        self.sigmas = sigmas_arr
        self.weights = weights_arr

    def sample(self, size: int, random_state: RandomState = None) -> np.ndarray:
        size = self._validated_size(size)
        rng = as_generator(random_state)
        components = rng.choice(self.means.size, size=size, p=self.weights)
        draws = rng.normal(self.means[components], self.sigmas[components])
        return draws.reshape(-1, 1)

    def mean(self) -> np.ndarray:
        return np.array([float(np.dot(self.weights, self.means))])

    def variance(self) -> float:
        overall_mean = float(np.dot(self.weights, self.means))
        second_moment = np.dot(self.weights, self.sigmas**2 + self.means**2)
        return float(second_moment - overall_mean**2)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)[..., None]
        z = (x - self.means) / self.sigmas
        comp = np.exp(-0.5 * z**2) / (self.sigmas * math.sqrt(2 * math.pi))
        return np.sum(self.weights * comp, axis=-1)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)[..., None]
        comp = 0.5 * (1.0 + special.erf((x - self.means) / (self.sigmas * math.sqrt(2))))
        return np.sum(self.weights * comp, axis=-1)

    def ppf(self, q: np.ndarray) -> np.ndarray:
        q = np.atleast_1d(np.asarray(q, dtype=float))
        lo = float(np.min(self.means - 10 * self.sigmas))
        hi = float(np.max(self.means + 10 * self.sigmas))
        out = np.empty_like(q)
        for i, qi in enumerate(q):
            out[i] = _bisect_cdf(self.cdf, qi, lo, hi)
        return out if out.size > 1 else out.reshape(q.shape)

    def __repr__(self) -> str:
        return f"GaussianMixture1D(k={self.means.size})"


def _bisect_cdf(cdf, target: float, lo: float, hi: float, iters: int = 80) -> float:
    """Invert a monotone CDF by bisection on ``[lo, hi]``."""
    if target <= 0.0:
        return lo
    if target >= 1.0:
        return hi
    a, b = lo, hi
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if float(cdf(np.asarray(mid))) < target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
