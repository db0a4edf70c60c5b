"""Empirical distributions (ECDFs) over Monte-Carlo output samples.

Both the MC baseline (Algorithm 1) and the GP approach (Algorithm 2) return
the output distribution of ``Y = f(X)`` as an empirical CDF over ``m``
samples.  This module provides that representation along with the operations
query processing needs on it: interval probabilities, truncation by a
selection predicate (which yields the tuple existence probability), quantiles
and density estimates for presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.distributions.base import UnivariateDistribution
from repro.exceptions import EmptySampleError
from repro.rng import RandomState, as_generator


class EmpiricalDistribution(UnivariateDistribution):
    """Empirical CDF built from scalar output samples.

    ``Pr(Y' <= y) = (1/m) * #{ y_i <= y }`` — exactly the estimator returned
    by Algorithms 1 and 2 in the paper.
    """

    def __init__(self, samples: np.ndarray):
        arr = np.asarray(samples, dtype=float).ravel()
        # The finite-filter copy is skipped when nothing needs dropping —
        # this constructor runs three times per tuple on the envelope path.
        finite = np.isfinite(arr)
        if not finite.all():
            arr = arr[finite]
        if arr.size == 0:
            raise EmptySampleError("cannot build an empirical CDF from zero samples")
        self._sorted = np.sort(arr)

    # -- basic accessors ---------------------------------------------------
    @property
    def samples(self) -> np.ndarray:
        """Sorted copy of the underlying samples."""
        return self._sorted.copy()

    @property
    def size(self) -> int:
        """Number of samples backing the ECDF."""
        return int(self._sorted.size)

    @property
    def support(self) -> tuple[float, float]:
        """Smallest and largest observed sample."""
        return float(self._sorted[0]), float(self._sorted[-1])

    # -- distribution protocol ----------------------------------------------
    def sample(self, size: int, random_state: RandomState = None) -> np.ndarray:
        size = self._validated_size(size)
        rng = as_generator(random_state)
        idx = rng.integers(0, self._sorted.size, size=size)
        return self._sorted[idx].reshape(-1, 1)

    def mean(self) -> np.ndarray:
        return np.array([float(np.mean(self._sorted))])

    def variance(self) -> float:
        return float(np.var(self._sorted))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Gaussian-kernel density estimate (for plotting, e.g. Fig. 6a)."""
        x = np.asarray(x, dtype=float)
        bandwidth = _silverman_bandwidth(self._sorted)
        if bandwidth == 0.0:
            return np.where(np.isclose(x, self._sorted[0]), np.inf, 0.0)
        diffs = (x[..., None] - self._sorted) / bandwidth
        kernel = np.exp(-0.5 * diffs**2) / np.sqrt(2 * np.pi)
        return kernel.mean(axis=-1) / bandwidth

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        counts = np.searchsorted(self._sorted, x, side="right")
        return counts / self._sorted.size

    def ppf(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        idx = np.ceil(q * self._sorted.size).astype(int) - 1
        idx = np.clip(idx, 0, self._sorted.size - 1)
        return self._sorted[idx]

    # -- query-processing operations -----------------------------------------
    def interval_probability(self, a: float, b: float) -> float:
        """Empirical ``Pr[a <= Y <= b]``."""
        if b < a:
            raise ValueError(f"interval upper bound {b} is below lower bound {a}")
        left = np.searchsorted(self._sorted, a, side="left")
        right = np.searchsorted(self._sorted, b, side="right")
        return (right - left) / self._sorted.size

    def truncate(self, a: float, b: float) -> "TruncationResult":
        """Apply a selection predicate ``Y in [a, b]``.

        Returns the truncated (renormalised) distribution together with the
        tuple existence probability, i.e. the fraction of probability mass
        that satisfies the predicate (Section 2.1 of the paper).
        """
        if b < a:
            raise ValueError(f"interval upper bound {b} is below lower bound {a}")
        mask = (self._sorted >= a) & (self._sorted <= b)
        existence = float(mask.mean())
        truncated = EmpiricalDistribution(self._sorted[mask]) if mask.any() else None
        return TruncationResult(distribution=truncated, existence_probability=existence)

    def histogram(self, bins: int = 50) -> tuple[np.ndarray, np.ndarray]:
        """Normalised histogram (densities, bin_edges) of the samples."""
        if bins <= 0:
            raise ValueError("bins must be positive")
        densities, edges = np.histogram(self._sorted, bins=bins, density=True)
        return densities, edges

    def __repr__(self) -> str:
        lo, hi = self.support
        return f"EmpiricalDistribution(m={self.size}, support=[{lo:.4g}, {hi:.4g}])"


@dataclass(frozen=True)
class TruncationResult:
    """Outcome of applying a selection predicate to an output distribution."""

    #: Renormalised distribution of the output restricted to the predicate
    #: interval, or ``None`` when no sample satisfied the predicate.
    distribution: Optional[EmpiricalDistribution]

    #: Tuple existence probability: the estimated probability that the
    #: predicate holds.
    existence_probability: float


def ecdf_difference_sup(first: EmpiricalDistribution, second: EmpiricalDistribution) -> float:
    """Supremum of ``|F1(y) - F2(y)|`` over all y (two-sample KS statistic).

    Evaluated exactly by scanning the union of jump points of the two step
    functions; used both by the metrics module and the error-bound tests.
    """
    grid = np.union1d(first.samples, second.samples)
    return float(np.max(np.abs(first.cdf(grid) - second.cdf(grid))))


def _silverman_bandwidth(samples: np.ndarray) -> float:
    """Silverman's rule-of-thumb bandwidth for a Gaussian KDE."""
    n = samples.size
    if n < 2:
        return 0.0
    std = np.std(samples, ddof=1)
    iqr = np.subtract(*np.percentile(samples, [75, 25]))
    spread = min(std, iqr / 1.349) if iqr > 0 else std
    if spread == 0.0:
        return 0.0
    return 0.9 * spread * n ** (-0.2)
