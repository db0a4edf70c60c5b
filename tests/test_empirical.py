"""Unit tests for empirical distributions (ECDFs) and truncation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions.empirical import (
    EmpiricalDistribution,
    ecdf_difference_sup,
)
from repro.exceptions import EmptySampleError

# A small grid: random samples tie with each other and with the bounds.
tie_prone = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


class TestEmpiricalDistribution:
    def test_requires_samples(self):
        with pytest.raises(EmptySampleError):
            EmpiricalDistribution(np.array([]))

    def test_non_finite_samples_dropped(self):
        dist = EmpiricalDistribution(np.array([1.0, np.nan, 2.0, np.inf]))
        assert dist.size == 2

    def test_all_non_finite_raises(self):
        with pytest.raises(EmptySampleError):
            EmpiricalDistribution(np.array([np.nan, np.inf]))

    def test_cdf_step_values(self):
        dist = EmpiricalDistribution(np.array([1.0, 2.0, 3.0, 4.0]))
        assert dist.cdf(np.asarray(0.0)) == 0.0
        assert dist.cdf(np.asarray(1.0)) == 0.25
        assert dist.cdf(np.asarray(2.5)) == 0.5
        assert dist.cdf(np.asarray(4.0)) == 1.0

    def test_cdf_vectorised(self):
        dist = EmpiricalDistribution(np.arange(10, dtype=float))
        values = dist.cdf(np.array([-1.0, 4.5, 100.0]))
        assert np.allclose(values, [0.0, 0.5, 1.0])

    def test_ppf_returns_order_statistics(self):
        dist = EmpiricalDistribution(np.array([10.0, 20.0, 30.0, 40.0]))
        assert dist.ppf(np.asarray(0.25)) == 10.0
        assert dist.ppf(np.asarray(1.0)) == 40.0

    def test_ppf_out_of_range_rejected(self):
        dist = EmpiricalDistribution(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            dist.ppf(np.asarray(1.5))

    def test_mean_and_variance(self):
        dist = EmpiricalDistribution(np.array([2.0, 4.0, 6.0]))
        assert dist.mean()[0] == pytest.approx(4.0)
        assert dist.variance() == pytest.approx(np.var([2.0, 4.0, 6.0]))

    def test_interval_probability_inclusive(self):
        dist = EmpiricalDistribution(np.array([1.0, 2.0, 3.0, 4.0]))
        assert dist.interval_probability(2.0, 3.0) == pytest.approx(0.5)
        assert dist.interval_probability(0.0, 10.0) == pytest.approx(1.0)

    def test_interval_probability_invalid(self):
        dist = EmpiricalDistribution(np.array([1.0]))
        with pytest.raises(ValueError):
            dist.interval_probability(2.0, 1.0)

    def test_support(self):
        dist = EmpiricalDistribution(np.array([5.0, -1.0, 3.0]))
        assert dist.support == (-1.0, 5.0)

    def test_resampling_stays_in_support(self, rng):
        dist = EmpiricalDistribution(np.array([1.0, 2.0, 3.0]))
        samples = dist.sample(100, random_state=rng)
        assert set(np.unique(samples)).issubset({1.0, 2.0, 3.0})

    def test_pdf_is_nonnegative_and_normalised(self):
        dist = EmpiricalDistribution(np.random.default_rng(0).normal(size=400))
        grid = np.linspace(-6, 6, 2001)
        pdf = dist.pdf(grid)
        assert np.all(pdf >= 0)
        assert np.trapezoid(pdf, grid) == pytest.approx(1.0, abs=0.02)

    def test_histogram_density(self):
        dist = EmpiricalDistribution(np.random.default_rng(1).normal(size=500))
        densities, edges = dist.histogram(bins=20)
        widths = np.diff(edges)
        assert np.sum(densities * widths) == pytest.approx(1.0, abs=1e-9)

    def test_histogram_invalid_bins(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(np.array([1.0])).histogram(bins=0)


class TestTruncation:
    def test_truncate_returns_existence_probability(self):
        dist = EmpiricalDistribution(np.arange(10, dtype=float))
        result = dist.truncate(0.0, 4.0)
        assert result.existence_probability == pytest.approx(0.5)
        assert result.distribution is not None
        assert result.distribution.size == 5

    def test_truncate_to_empty_interval(self):
        dist = EmpiricalDistribution(np.array([1.0, 2.0]))
        result = dist.truncate(10.0, 20.0)
        assert result.existence_probability == 0.0
        assert result.distribution is None

    def test_truncate_invalid_interval(self):
        dist = EmpiricalDistribution(np.array([1.0]))
        with pytest.raises(ValueError):
            dist.truncate(3.0, 2.0)

    def test_truncated_support_inside_interval(self):
        dist = EmpiricalDistribution(np.linspace(0, 10, 101))
        result = dist.truncate(2.0, 3.0)
        lo, hi = result.distribution.support
        assert lo >= 2.0 and hi <= 3.0

    @given(
        samples=st.lists(tie_prone, min_size=1, max_size=10),
        bounds=st.tuples(tie_prone, tie_prone).map(sorted),
    )
    @settings(max_examples=80, deadline=None)
    def test_truncate_keeps_the_closed_interval_on_tie_heavy_samples(self, samples, bounds):
        """Both bounds are inclusive, and the existence probability is the
        exact fraction of samples kept."""
        low, high = bounds
        arr = np.array(samples)
        inside = np.sort(arr[(arr >= low) & (arr <= high)])
        result = EmpiricalDistribution(arr).truncate(low, high)
        assert result.existence_probability == inside.size / arr.size
        if inside.size == 0:
            assert result.distribution is None
        else:
            assert np.array_equal(result.distribution.samples, inside)


class TestEcdfDifference:
    def test_identical_distributions(self):
        samples = np.array([1.0, 2.0, 3.0])
        a = EmpiricalDistribution(samples)
        b = EmpiricalDistribution(samples)
        assert ecdf_difference_sup(a, b) == 0.0

    def test_disjoint_distributions(self):
        a = EmpiricalDistribution(np.array([0.0, 1.0]))
        b = EmpiricalDistribution(np.array([10.0, 11.0]))
        assert ecdf_difference_sup(a, b) == pytest.approx(1.0)

    def test_symmetry(self):
        a = EmpiricalDistribution(np.array([0.0, 1.0, 2.0]))
        b = EmpiricalDistribution(np.array([0.5, 1.5, 2.5, 3.5]))
        assert ecdf_difference_sup(a, b) == pytest.approx(ecdf_difference_sup(b, a))
