"""Property-based tests (hypothesis) for the approximation metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.metrics import (
    discrepancy,
    ks_distance,
    lambda_discrepancy,
    lambda_discrepancy_naive,
)
from repro.distributions.empirical import EmpiricalDistribution

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)

sample_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=40),
    elements=finite_floats,
)


@st.composite
def two_ecdfs(draw):
    a = EmpiricalDistribution(draw(sample_arrays))
    b = EmpiricalDistribution(draw(sample_arrays))
    return a, b


class TestMetricAxioms:
    @given(two_ecdfs())
    @settings(max_examples=60, deadline=None)
    def test_values_in_unit_interval(self, pair):
        a, b = pair
        for value in (ks_distance(a, b), discrepancy(a, b), lambda_discrepancy(a, b, 1.0)):
            assert -1e-12 <= value <= 1.0 + 1e-12

    @given(two_ecdfs())
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, pair):
        a, b = pair
        assert ks_distance(a, b) == ks_distance(b, a)
        assert discrepancy(a, b) == discrepancy(b, a)

    @given(sample_arrays)
    @settings(max_examples=60, deadline=None)
    def test_identity_of_indiscernibles(self, samples):
        dist = EmpiricalDistribution(samples)
        assert ks_distance(dist, dist) == 0.0
        assert discrepancy(dist, dist) == 0.0

    @given(two_ecdfs())
    @settings(max_examples=60, deadline=None)
    def test_ks_discrepancy_sandwich(self, pair):
        # KS <= D <= 2 KS (stated right after Definition 2 in the paper).
        a, b = pair
        ks = ks_distance(a, b)
        d = discrepancy(a, b)
        assert ks - 1e-12 <= d <= 2 * ks + 1e-12

    @given(two_ecdfs(), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_lambda_discrepancy_below_discrepancy(self, pair, lam):
        a, b = pair
        assert lambda_discrepancy(a, b, lam) <= discrepancy(a, b) + 1e-12

    # Not strict: the derandomised sequence is keyed on this function's
    # source, and the one the unmarked property drew lands on the example
    # pinned below.  The fix to the metric moves the perfbench audit's
    # verdicts and is ROADMAP 1(a)'s own PR.
    @pytest.mark.xfail(strict=False, reason="ROADMAP 1(a)")
    @given(two_ecdfs(), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_efficient_lambda_discrepancy_matches_naive(self, pair, lam):
        a, b = pair
        fast = lambda_discrepancy(a, b, lam)
        slow = lambda_discrepancy_naive(a, b, lam)
        assert abs(fast - slow) < 1e-9

    @pytest.mark.xfail(strict=True, reason="ROADMAP 1(a)")
    def test_efficient_lambda_discrepancy_known_mismatch(self):
        # The endpoint 1.434e-211 + λ rounds onto the sample value 1.
        a = EmpiricalDistribution(np.array([1.0]))
        b = EmpiricalDistribution(np.array([1.434e-211, 2.0]))
        assert abs(lambda_discrepancy(a, b, 1.0) - lambda_discrepancy_naive(a, b, 1.0)) < 1e-9


class TestTriangleInequality:
    @given(sample_arrays, sample_arrays, sample_arrays)
    @settings(max_examples=40, deadline=None)
    def test_ks_triangle(self, xs, ys, zs):
        a, b, c = (EmpiricalDistribution(arr) for arr in (xs, ys, zs))
        assert ks_distance(a, c) <= ks_distance(a, b) + ks_distance(b, c) + 1e-12

    @given(sample_arrays, sample_arrays, sample_arrays)
    @settings(max_examples=40, deadline=None)
    def test_discrepancy_triangle(self, xs, ys, zs):
        # The triangle inequality underlies Theorem 4.1's error combination.
        a, b, c = (EmpiricalDistribution(arr) for arr in (xs, ys, zs))
        assert discrepancy(a, c) <= discrepancy(a, b) + discrepancy(b, c) + 1e-12

    @given(sample_arrays, sample_arrays, sample_arrays, st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_lambda_discrepancy_triangle(self, xs, ys, zs, lam):
        a, b, c = (EmpiricalDistribution(arr) for arr in (xs, ys, zs))
        assert lambda_discrepancy(a, c, lam) <= (
            lambda_discrepancy(a, b, lam) + lambda_discrepancy(b, c, lam) + 1e-12
        )

    @pytest.mark.xfail(strict=True, reason="ROADMAP 1(a)")
    def test_lambda_discrepancy_triangle_known_counterexample(self):
        # The randomised search found it: interval endpoints are taken from
        # the pair's own sample values only, so d(a, b) misses (0.5, 2.5].
        a, b, c = (EmpiricalDistribution(np.array(v, dtype=float))
                   for v in ([3, 0, 0], [0, 1], [1, 2]))
        assert lambda_discrepancy(a, c, 2.0) <= (
            lambda_discrepancy(a, b, 2.0) + lambda_discrepancy(b, c, 2.0) + 1e-12
        )
