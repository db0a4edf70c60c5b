"""Simultaneous confidence bands for GP sample paths (§4.2).

The error-bound machinery needs an envelope ``f̂(x) ± z_α σ(x)`` that
contains a random posterior sample function ``f̃`` at *all* inputs
simultaneously with probability ``1 − α``.  A per-point Gaussian quantile is
not enough; the paper calibrates ``z_α`` through the expected Euler
characteristic of the excursion set ``A_z = {x : |f̃(x) − f̂(x)| / σ(x) ≥ z}``
(Adler's approximation).

For a standardised, approximately stationary field on a ``d``-dimensional
box with side lengths ``T_i`` and second spectral moment ``λ₂`` (a property
of the kernel), the expected Euler characteristic of the one-sided excursion
set is

``E[φ(A_z)] = Σ_{j=0..d} L_j ρ_j(z)``

with Lipschitz–Killing curvatures ``L_j = Σ_{|S|=j} Π_{i∈S} T_i`` and EC
densities ``ρ_0(z) = 1 − Φ(z)``,
``ρ_j(z) = λ₂^{j/2} (2π)^{-(j+1)/2} He_{j-1}(z) exp(-z²/2)`` where ``He`` are
probabilists' Hermite polynomials.  The two-sided band doubles the
expectation.  ``z_α`` solves ``E[φ(A_z)] = α``.

Two conservative fallbacks are provided: a Bonferroni (union-bound) band
over the finite set of Monte-Carlo sample locations, and a naive point-wise
band (not simultaneous; useful only for ablation comparisons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Literal, Sequence

import numpy as np
from scipy import optimize, special

from repro.config import DEFAULT_BAND_ALPHA
from repro.exceptions import GPError
from repro.gp.kernels import Kernel
from repro.index.bounding_box import BoundingBox

BandMethod = Literal["euler", "bonferroni", "pointwise"]

#: Search interval for the band multiplier z.
_Z_MIN, _Z_MAX = 0.1, 15.0

#: Point-wise Gaussian quantiles ``z = Phi^{-1}(1 - alpha/2)`` per alpha.
#: alpha is fixed per processor, so this is computed once per process.
_POINTWISE_Z: dict[float, float] = {}


def _pointwise_z(alpha: float) -> float:
    """Cached two-sided point-wise quantile (identical to ``stats.norm.ppf``)."""
    z = _POINTWISE_Z.get(alpha)
    if z is None:
        z = float(special.ndtri(1.0 - alpha / 2.0))
        _POINTWISE_Z[alpha] = z
    return z


@dataclass(frozen=True)
class SimultaneousBand:
    """A calibrated envelope multiplier and how it was obtained."""

    z_value: float
    alpha: float
    method: BandMethod

    def envelope(self, means: np.ndarray, stds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper envelope values ``mean ∓ z σ`` at sample locations."""
        means = np.asarray(means, dtype=float)
        stds = np.asarray(stds, dtype=float)
        return means - self.z_value * stds, means + self.z_value * stds


def _hermite_prob(order: int, z: float) -> float:
    """Probabilists' Hermite polynomial ``He_order(z)``."""
    if order < 0:
        raise GPError("Hermite order must be non-negative")
    if order == 0:
        return 1.0
    prev, curr = 1.0, z
    for k in range(1, order):
        prev, curr = curr, z * curr - k * prev
    return curr


def lipschitz_killing_curvatures(box: BoundingBox) -> np.ndarray:
    """``L_0 .. L_d`` of an axis-aligned box (elementary symmetric sums)."""
    lengths = box.lengths
    d = lengths.size
    curvatures = np.zeros(d + 1)
    curvatures[0] = 1.0
    for j in range(1, d + 1):
        total = 0.0
        for subset in combinations(range(d), j):
            total += float(np.prod(lengths[list(subset)]))
        curvatures[j] = total
    return curvatures


def expected_euler_characteristic(
    z: float,
    box: BoundingBox,
    second_spectral_moment: float,
    curvatures: np.ndarray | None = None,
) -> float:
    """One-sided ``E[φ(A_z)]`` for a standardised field on ``box``.

    ``curvatures`` may carry the box's precomputed Lipschitz–Killing
    curvatures — the band calibration evaluates this function many times per
    root-finding solve on a fixed box, and the curvatures only depend on the
    box.  ``special.ndtr`` is used directly (bitwise identical to
    ``stats.norm.sf``) because this sits on the per-tuple hot path and the
    distribution-infrastructure wrapper costs ~100x the actual tail
    computation.
    """
    if z <= 0:
        raise GPError("z must be positive")
    if second_spectral_moment <= 0:
        raise GPError("second spectral moment must be positive")
    if curvatures is None:
        curvatures = lipschitz_killing_curvatures(box)
    scales = _density_scales(second_spectral_moment, curvatures.size)
    return _euler_characteristic(z, curvatures, scales)


def _density_scales(lam: float, size: int) -> list[float]:
    """The z-independent factor ``λ₂^{j/2} (2π)^{-(j+1)/2}`` of every ``ρ_j``, j < size."""
    return [lam ** (j / 2.0) * (2.0 * math.pi) ** (-(j + 1) / 2.0) for j in range(size)]


def _euler_characteristic(z: float, curvatures: np.ndarray, scales: list[float]) -> float:
    """``Σ_j L_j ρ_j(z)`` from a box's curvatures and its density scales."""
    total = curvatures[0] * float(special.ndtr(-z))
    gaussian_tail = math.exp(-0.5 * z**2)
    for j in range(1, curvatures.size):
        density = scales[j] * _hermite_prob(j - 1, z) * gaussian_tail
        total += curvatures[j] * density
    return total


def band_z_value(
    kernel: Kernel,
    box: BoundingBox,
    alpha: float = DEFAULT_BAND_ALPHA,
    method: BandMethod = "euler",
    n_points: int | None = None,
) -> SimultaneousBand:
    """Calibrate the envelope multiplier ``z_α`` for a (1 − α) simultaneous band.

    Parameters
    ----------
    kernel:
        The GP kernel; only its second spectral moment enters the Euler
        characteristic approximation.
    box:
        Region over which the band must hold simultaneously — in the online
        algorithm this is the bounding box of the input samples.
    alpha:
        Target probability that the band is violated anywhere.
    method:
        ``"euler"`` (paper's choice), ``"bonferroni"`` over ``n_points``
        discrete locations, or ``"pointwise"`` (not simultaneous).
    n_points:
        Number of discrete locations for the Bonferroni method.
    """
    if not (0.0 < alpha < 1.0):
        raise GPError(f"alpha must be in (0, 1), got {alpha}")
    if method == "pointwise":
        return SimultaneousBand(z_value=_pointwise_z(alpha), alpha=alpha, method=method)
    if method == "bonferroni":
        if n_points is None or n_points <= 0:
            raise GPError("bonferroni band requires a positive n_points")
        z = float(special.ndtri(1.0 - alpha / (2.0 * n_points)))
        return SimultaneousBand(z_value=z, alpha=alpha, method=method)
    if method != "euler":
        raise GPError(f"unknown band method {method!r}")
    return _euler_band(box, alpha, kernel.second_spectral_moment())


def band_z_values(
    kernel: Kernel,
    boxes: Sequence[BoundingBox],
    alpha: float = DEFAULT_BAND_ALPHA,
    method: BandMethod = "euler",
    n_points: int | None = None,
) -> list[SimultaneousBand]:
    """:func:`band_z_value` for a column of boxes, one call each.

    Kept as a named loop because external profiling tools bind it by
    module and name; there is no second implementation behind it.
    """
    return [
        band_z_value(kernel, box, alpha=alpha, method=method, n_points=n_points)
        for box in boxes
    ]


def _euler_band(box: BoundingBox, alpha: float, lam: float) -> SimultaneousBand:
    """The Euler-characteristic calibration for one box and spectral moment."""
    if lam <= 0:
        raise GPError("second spectral moment must be positive")
    # Everything the root-solve's objective needs that does not depend on z.
    curvatures = lipschitz_killing_curvatures(box)
    scales = _density_scales(lam, curvatures.size)

    def objective(z: float) -> float:
        # Two-sided band: the excursion sets above +z and below -z are
        # disjoint and symmetric, doubling the expected Euler characteristic.
        return 2.0 * _euler_characteristic(z, curvatures, scales) - alpha

    low, high = _Z_MIN, _Z_MAX
    f_low = objective(low)
    f_high = objective(high)
    if f_low < 0.0:
        # Even the smallest z already satisfies the target (tiny box or very
        # smooth kernel): fall back to the point-wise quantile as a floor.
        return SimultaneousBand(z_value=_pointwise_z(alpha), alpha=alpha, method="euler")
    if f_high > 0.0:
        raise GPError(
            "could not calibrate the confidence band: the expected Euler "
            "characteristic stays above alpha even at z = 15; the domain box "
            "is too large relative to the kernel lengthscale"
        )
    z = float(optimize.brentq(objective, low, high, xtol=1e-6))
    # Never report a simultaneous band narrower than the point-wise one.
    z = max(z, _pointwise_z(alpha))
    return SimultaneousBand(z_value=z, alpha=alpha, method="euler")
