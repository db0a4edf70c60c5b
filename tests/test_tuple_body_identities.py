"""Bitwise identities the per-tuple inference-and-bound body rests on.

The hot path re-derives nothing it already has: Algorithm 3's sweep gets its
indices from merges and count tables, the kernel writes every step into one
array, and the exact-γ selection skips levels it has already judged.  Each
rewrite must reproduce the straightforward spelling *bit for bit* — the
straightforward spellings live here as the oracles:

* ``_augmented_grid`` + ``_sweep_on_grid``: the ``np.unique`` / five-
  ``searchsorted`` sweep, verbatim as it stood in ``repro.core.error_bounds``;
* ``_allocating_kernel``: ``signal_std**2 * corr(sqrt(sq) / lengthscale)``
  with a fresh matrix per step, the oracle of the training route's one
  buffer (``kernel(X1, X2)`` itself is the one-GEMM prediction route,
  ``tests/test_properties_kernels.py``);
* the ``_expand_radius`` schedule with a ``flatnonzero`` and a γ matvec at
  every level.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.error_bounds import (
    EnvelopeOutputs,
    build_envelope_outputs,
    gp_discrepancy_bound,
)
from repro.core.local_inference import LocalInferenceEngine
from repro.distributions.empirical import EmpiricalDistribution
from repro.gp.kernels import Matern32, Matern52, SquaredExponential
from repro.gp.regression import GaussianProcess, _training_block
from repro.index.bounding_box import BoundingBox


# -- the sweep oracle (verbatim) ------------------------------------------------------
def _augmented_grid(envelope: EnvelopeOutputs, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Union grid of the three sample sets plus virtual ±infinity points."""
    # One unique pass over the concatenation — identical to the nested
    # union1d (which is defined as unique of a concatenation) at half the
    # sorting work; this sits on the per-tuple hot path.
    grid = np.unique(
        np.concatenate(
            [envelope.y_hat.samples, envelope.y_lower.samples, envelope.y_upper.samples]
        )
    )
    pad = max(lam, 1.0) * 2.0 + 1.0
    grid = np.concatenate([[grid[0] - pad], grid, [grid[-1] + pad]])
    f_s = envelope.y_lower.cdf(grid)
    f_h = envelope.y_hat.cdf(grid)
    f_l = envelope.y_upper.cdf(grid)
    return grid, f_s, f_h, f_l


def _sweep_on_grid(
    grid: np.ndarray, f_s: np.ndarray, f_h: np.ndarray, f_l: np.ndarray, lam: float
) -> float:
    """The Algorithm-3 sweep given an augmented grid and its three CDFs."""
    n = grid.size
    d_sh = f_s - f_h  # >= 0 up to MC noise
    d_hl = f_h - f_l  # >= 0 up to MC noise

    # Suffix maxima: sufmax[i] = max over j >= i.
    sufmax_sh = np.maximum.accumulate(d_sh[::-1])[::-1]
    sufmax_hl = np.maximum.accumulate(d_hl[::-1])[::-1]

    # Indices of the first feasible right endpoint for every left endpoint.
    first_feasible = np.searchsorted(grid, grid + lam, side="left")
    # For the rho_L > 0 region: first index where F_L(b) >= F_S(a).
    crossing = np.searchsorted(f_l, f_s, side="left")

    # The sweep over left endpoints is fully data-parallel; evaluating the
    # three candidate terms with masked array expressions keeps the values
    # identical to the scalar sweep while running at numpy speed.
    valid = first_feasible < n
    if not np.any(valid):
        return 0.0
    ia = np.flatnonzero(valid)
    ib_min = first_feasible[ia]
    best = 0.0
    # Term A: rho'_U - rho_hat' = d_hl(a) + max_{b} d_sh(b).
    best = max(best, float(np.max(d_hl[ia] + sufmax_sh[ib_min])))
    # Term B, region where rho'_L > 0: d_sh(a) + max_{b} d_hl(b).
    ib1 = np.maximum(ib_min, crossing[ia])
    in_range = ib1 < n
    if np.any(in_range):
        best = max(best, float(np.max(d_sh[ia[in_range]] + sufmax_hl[ib1[in_range]])))
    # Term B, region where rho'_L = 0 (b below the crossing): the bound is
    # rho_hat' itself, maximised at the largest feasible b in the region
    # because the mean CDF is non-decreasing.
    ib2 = np.minimum(crossing[ia], n) - 1
    feasible = ib2 >= ib_min
    if np.any(feasible):
        best = max(best, float(np.max(f_h[ib2[feasible]] - f_h[ia[feasible]])))
    return float(min(1.0, best))


def _oracle_bound(envelope: EnvelopeOutputs, lam: float) -> float:
    return _sweep_on_grid(*_augmented_grid(envelope, lam), lam)


#: λ from nothing to far beyond any support drawn below.
lams = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 0.05, 0.3, 0.5, 1.0, 2.0, 1e3]),
    st.floats(min_value=0.0, max_value=4.0),
)


@st.composite
def envelopes(draw):
    """Continuous or tie-heavy envelopes, σ = 0 and signed zeros included."""
    m = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    means = rng.normal(size=m)
    stds = np.abs(rng.normal(size=m)) * draw(st.sampled_from([0.0, 0.1, 1.0]))
    if draw(st.booleans()):
        # Integer-valued on a coarse grid: most grid points are shared by
        # two or three of the variables, many within one.
        means, stds = np.round(means * 2.0), np.round(stds * 2.0)
        means[rng.random(m) < 0.3] = -0.0
    z = draw(st.sampled_from([0.0, 1.0, 2.5]))
    return build_envelope_outputs(means, stds, z)


@st.composite
def ragged_envelopes(draw):
    """Envelopes whose variables lose different samples to the finite filter."""
    m = draw(st.integers(min_value=3, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    scale = draw(st.sampled_from([1.0, 4.0]))
    columns = []
    for shift in (0.0, -0.5, 0.5):
        values = np.round((rng.normal(size=m) + shift) * scale) / scale
        drop = rng.random(m) < draw(st.sampled_from([0.0, 0.2, 0.5]))
        drop[0] = False  # an ECDF needs one finite sample
        values[drop] = rng.choice([np.nan, np.inf, -np.inf], size=int(drop.sum()))
        columns.append(EmpiricalDistribution(values))
    return EnvelopeOutputs(y_hat=columns[0], y_lower=columns[1], y_upper=columns[2], z_value=1.0)


class TestSweepMatchesTheSearchsortedSweep:
    @given(envelopes(), lams)
    # One sample, every variable on it: the grid is the two virtual points
    # around a single value.
    @example(build_envelope_outputs(np.array([0.0]), np.array([0.0]), 1.0), 0.0)
    @example(build_envelope_outputs(np.array([-0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), 1.0), 0.5)
    # A smallest value that absorbs the pad: the virtual left point is that
    # value, not a point below it.
    @example(build_envelope_outputs(np.array([-1e17, 0.0, 3.0]), np.array([0.0, 1.0, 1.0]), 2.0), 1.0)
    @settings(max_examples=400, deadline=None)
    def test_on_random_and_tie_heavy_envelopes(self, envelope, lam):
        assert gp_discrepancy_bound(envelope, lam) == _oracle_bound(envelope, lam)

    @given(ragged_envelopes(), lams)
    @settings(max_examples=200, deadline=None)
    def test_on_unequal_sample_sizes(self, envelope, lam):
        sizes = {envelope.y_hat.size, envelope.y_lower.size, envelope.y_upper.size}
        assert gp_discrepancy_bound(envelope, lam) == _oracle_bound(envelope, lam), sizes

    def test_ragged_strategy_reaches_unequal_envelope_sizes(self):
        # The count-domain crossing needs |Y'_S| == |Y'_L|; the float search
        # it falls back to must be exercised too.
        hit = []

        @given(ragged_envelopes())
        @settings(max_examples=50, deadline=None)
        def probe(envelope):
            hit.append(envelope.y_lower.size != envelope.y_upper.size)

        probe()
        assert any(hit) and not all(hit)

    @pytest.mark.parametrize("m", [199, 1239])
    def test_at_production_sample_counts(self, m):
        rng = np.random.default_rng(m)
        envelope = build_envelope_outputs(rng.normal(size=m), np.abs(rng.normal(size=m)) * 0.1, 2.6)
        for lam in (0.0, 0.02, 0.4):
            assert gp_discrepancy_bound(envelope, lam) == _oracle_bound(envelope, lam)


# -- the kernel oracle ----------------------------------------------------------------
_ALLOCATING_CORRELATION = {
    SquaredExponential: lambda u: np.exp(-0.5 * u**2),
    Matern32: lambda u: (1.0 + math.sqrt(3.0) * u) * np.exp(-(math.sqrt(3.0) * u)),
    Matern52: lambda u: (
        (1.0 + math.sqrt(5.0) * u + (math.sqrt(5.0) * u) ** 2 / 3.0) * np.exp(-(math.sqrt(5.0) * u))
    ),
}


def _allocating_kernel(kernel, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    sq1 = np.sum(X1**2, axis=1)[:, None]
    sq2 = np.sum(X2**2, axis=1)[None, :]
    sq = sq1 + sq2 - 2.0 * X1 @ X2.T
    r = np.sqrt(np.maximum(sq, 0.0))
    return kernel.signal_std**2 * _ALLOCATING_CORRELATION[type(kernel)](r / kernel.lengthscale)


class TestOneBufferKernelMatchesTheAllocatingSpelling:
    def test_the_numpy_facts_the_in_place_forms_assume(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(size=4096) * 10.0 ** rng.integers(-8, 8, size=4096),
                            [0.0, -0.0, 1e-200, 1e200, np.inf]])
        with np.errstate(over="ignore"):
            assert np.array_equal(x**2, x * x)
        assert np.array_equal(-0.5 * x, x * -0.5)
        assert np.array_equal(3.0 + x, x + 3.0)
        assert np.array_equal(-x, np.negative(x))

    @pytest.mark.parametrize("kernel_class", [SquaredExponential, Matern32, Matern52])
    @pytest.mark.parametrize("d", [1, 2, 4, 10])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 10), (199, 74), (1239, 56)])
    def test_array_equal(self, kernel_class, d, shape):
        rng = np.random.default_rng(shape[0] * 31 + d)
        kernel = kernel_class(signal_std=float(rng.uniform(0.3, 4.0)),
                              lengthscale=float(rng.uniform(0.2, 3.0)))
        X1 = rng.uniform(0.0, 10.0, size=(shape[0], d))
        X2 = rng.uniform(0.0, 10.0, size=(shape[1], d))
        assert np.array_equal(_training_block(kernel, X1, X2), _allocating_kernel(kernel, X1, X2))
        # A training block against itself: zero distances on the diagonal.
        assert np.array_equal(_training_block(kernel, X2, X2), _allocating_kernel(kernel, X2, X2))

    @given(st.sampled_from([SquaredExponential, Matern32, Matern52]),
           st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_array_equal_over_hyperparameters(self, kernel_class, seed, signal_std, lengthscale):
        rng = np.random.default_rng(seed)
        kernel = kernel_class(signal_std=signal_std, lengthscale=lengthscale)
        X1 = rng.normal(size=(int(rng.integers(1, 40)), 2)) * 5.0
        X2 = np.vstack([X1[:3], rng.normal(size=(int(rng.integers(1, 20)), 2)) * 5.0])
        assert np.array_equal(_training_block(kernel, X1, X2), _allocating_kernel(kernel, X1, X2))

    def test_evaluation_leaves_its_inputs_alone(self):
        kernel = SquaredExponential(1.5, 0.7)
        X = np.random.default_rng(1).normal(size=(6, 2))
        before = X.copy()
        kernel(X, X)
        _training_block(kernel, X, X)
        kernel.gradients(X)
        assert np.array_equal(X, before)


# -- the selection oracle -------------------------------------------------------------
def _expand_radius_selection(engine, gp, alpha, distances, K_rows, box):
    """The exact-γ schedule with every level judged afresh."""
    return engine._expand_radius(
        gp,
        alpha,
        box,
        lambda radius: np.flatnonzero(distances <= radius),
        lambda excluded: K_rows @ np.where(excluded, alpha, 0.0),
    )


class TestSelectionMatchesTheExpandRadiusSchedule:
    @staticmethod
    def _model(n: int, rng: np.random.Generator) -> GaussianProcess:
        gp = GaussianProcess(kernel=SquaredExponential(1.0, float(rng.uniform(0.3, 2.0))))
        gp.fit(rng.uniform(0.0, 10.0, size=(n, 2)), rng.normal(size=n))
        return gp

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=40),
        # Where the distance column starts and how far it spreads, in
        # lengthscales: columns whose first levels keep nothing, columns a
        # few levels sort out, and columns no level ever reaches.
        st.sampled_from([0.0, 0.4, 3.0, 50.0, 1e7]),
        st.sampled_from([0.0, 0.5, 5.0, 200.0]),
        st.sampled_from([1e-12, 1e-3, 0.1, 10.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_identical_selection_gamma_and_radius(self, seed, n, nearest, spread, threshold):
        rng = np.random.default_rng(seed)
        gp = self._model(n, rng)
        alpha = gp.alpha
        ell = gp.kernel.lengthscale
        distances = (nearest + spread * rng.random(n)) * ell
        if seed % 3 == 0:
            # Repeated distances: several levels keep the same set.
            distances = np.round(distances / ell) * ell
        K_rows = rng.normal(size=(17, n))
        box = BoundingBox(np.zeros(2), np.ones(2))
        engine = LocalInferenceEngine(gamma_threshold=threshold)
        got = engine._select_from_distances(gp, alpha, distances, K_rows, box)
        want = _expand_radius_selection(engine, gp, alpha, distances, K_rows, box)
        assert np.array_equal(got[0], want[0])
        assert got[0].dtype == want[0].dtype
        assert got[1:] == want[1:]

    def test_the_cases_the_property_must_reach(self):
        rng = np.random.default_rng(5)
        gp = self._model(12, rng)
        alpha, ell = gp.alpha, gp.kernel.lengthscale
        K_rows = rng.normal(size=(9, 12))
        box = BoundingBox(np.zeros(2), np.ones(2))
        engine = LocalInferenceEngine(gamma_threshold=1e-9)
        everything = np.arange(12)
        # Out of reach of all 30 levels: the schedule runs dry.
        far = np.full(12, 1e9 * ell)
        selected, gamma, radius = engine._select_from_distances(gp, alpha, far, K_rows, box)
        assert np.array_equal(selected, everything) and gamma == 0.0
        assert radius == _expand_radius_selection(engine, gp, alpha, far, K_rows, box)[2]
        # Inside the first radius: everything at the first level.
        near = np.zeros(12)
        assert engine._select_from_distances(gp, alpha, near, K_rows, box)[2] == 0.5 * ell
        # Nothing kept for the first levels, then a proper subset accepted.
        loose = LocalInferenceEngine(gamma_threshold=1e9)
        stepped = np.concatenate([np.full(4, 3.0 * ell), np.full(8, 40.0 * ell)])
        selected, gamma, radius = loose._select_from_distances(gp, alpha, stepped, K_rows, box)
        assert np.array_equal(selected, np.arange(4)) and radius > 0.5 * ell
        want = _expand_radius_selection(loose, gp, alpha, stepped, K_rows, box)
        assert (selected.tolist(), gamma, radius) == (want[0].tolist(), want[1], want[2])
