"""Property-based tests (hypothesis) for the kernels' prediction route.

``kernel(X1, X2)`` builds a cross-covariance block from one GEMM on
centred, lengthscale-scaled operands; ``kernel.from_distances(
pairwise_dists(X1, X2))`` is the route every training block takes.  The two
must agree to rounding for every kernel, dimension, size, lengthscale and
position, and the GEMM block must stay a covariance: entries in
``[0, sigma_f^2]``, ``sigma_f^2`` for a point against itself.

Point clouds are drawn in lengthscale units around a shift of up to 1e4.
``pairwise_dists`` is uncentred, so at such a shift its own rounding
(``eps * |x|^2 / l^2``) swamps both routes: the reference is evaluated on
the cloud moved back to the origin, which is the same configuration, since
subtracting the shift again is exact or within an ulp of each coordinate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.gp.kernels import Matern32, Matern52, SquaredExponential, pairwise_dists

KERNELS = [SquaredExponential, Matern32, Matern52]
EPS = float(np.finfo(float).eps)


@st.composite
def operands(draw, max_extent: float = 4.0):
    """``(X1, X2, shift, lengthscale, signal_std)``: two clouds of ``d``-dimensional points.

    Each coordinate lies within ``extent`` lengthscales of ``shift``; ``X1``
    repeats a few of ``X2``'s rows, so the block holds exact self-pairs.
    """
    d = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=60))
    n = draw(st.integers(min_value=1, max_value=60))
    lengthscale = 10.0 ** draw(st.floats(min_value=-2.0, max_value=2.0))
    signal_std = 10.0 ** draw(st.floats(min_value=-1.0, max_value=1.0))
    extent = draw(st.floats(min_value=0.0, max_value=max_extent))
    shift = draw(hnp.arrays(np.float64, d, elements=st.floats(min_value=-1e4, max_value=1e4)))
    unit = st.floats(min_value=-1.0, max_value=1.0)
    Z1 = draw(hnp.arrays(np.float64, (m, d), elements=unit))
    Z2 = draw(hnp.arrays(np.float64, (n, d), elements=unit))
    X2 = shift + extent * lengthscale * Z2
    X1 = np.vstack([shift + extent * lengthscale * Z1, X2[: min(n, 3)]])
    return X1, X2, shift, lengthscale, signal_std


@pytest.mark.parametrize("kernel_cls", KERNELS)
class TestPredictionBlock:
    @given(operands())
    @settings(max_examples=80, deadline=None)
    def test_within_rounding_of_the_training_route(self, kernel_cls, drawn):
        X1, X2, shift, lengthscale, signal_std = drawn
        kernel = kernel_cls(signal_std=signal_std, lengthscale=lengthscale)
        reference = kernel.from_distances(pairwise_dists(X1 - shift, X2 - shift))
        block = kernel(X1, X2)
        assert block.shape == reference.shape
        assert np.max(np.abs(block - reference)) <= 1e-13 * signal_std**2
        selves = min(X2.shape[0], 3)
        diagonal = np.diagonal(block[-selves:, :selves])
        assert np.all(np.abs(diagonal - signal_std**2) <= 1e-13 * signal_std**2)

    @given(operands(max_extent=100.0))
    @settings(max_examples=80, deadline=None)
    def test_entries_lie_in_zero_to_the_signal_variance(self, kernel_cls, drawn):
        X1, X2, _, lengthscale, signal_std = drawn
        block = kernel_cls(signal_std=signal_std, lengthscale=lengthscale)(X1, X2)
        assert np.all(block >= 0.0)
        assert np.all(block <= signal_std**2)

    def test_near_coincident_points_stay_below_the_signal_variance(self, kernel_cls):
        # Matérn-5/2's (1 + v + v^2/3) exp(-v) rounds to 1 + eps near v = 2e-8.
        lengthscale, signal_std = 0.7, 1.3
        offsets = lengthscale * np.logspace(-10, -6, 40_001)[:, None]
        block = kernel_cls(signal_std=signal_std, lengthscale=lengthscale)(offsets, np.zeros((1, 1)))
        assert np.all(block <= signal_std**2)

    @given(operands(max_extent=100.0))
    @settings(max_examples=80, deadline=None)
    def test_rounding_grows_as_the_squared_spread(self, kernel_cls, drawn):
        """Against exact distances, the error stays below ``4 eps (1 + rho^2) sigma_f^2``."""
        X1, X2, _, lengthscale, signal_std = drawn
        kernel = kernel_cls(signal_std=signal_std, lengthscale=lengthscale)
        centre = X2.mean(axis=0)
        rho = max(
            np.max(np.linalg.norm(X - centre, axis=1)) for X in (X1, X2)
        ) / lengthscale
        exact = np.sqrt(np.sum((X1[:, None, :] - X2[None, :, :]) ** 2, axis=2))
        error = np.max(np.abs(kernel(X1, X2) - kernel.from_distances(exact)))
        assert error <= 4.0 * EPS * (1.0 + rho**2) * signal_std**2
