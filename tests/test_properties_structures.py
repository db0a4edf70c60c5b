"""Property-based tests (hypothesis) for core data structures.

Covers the R-tree (search correctness and structural invariants for arbitrary
point sets), empirical CDFs (monotonicity, quantile consistency), the
envelope error bounds (efficient == naive, bound validity), and the
incremental covariance-inverse update.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.error_bounds import (
    build_envelope_outputs,
    gp_discrepancy_bound,
    gp_discrepancy_bound_naive,
    interval_probability_bounds,
)
from repro.core.local_inference import _distances_to_boxes
from repro.distributions.empirical import EmpiricalDistribution
from repro.gp.linalg import block_inverse_update
from repro.index.bounding_box import BoundingBox
from repro.index.rtree import RTree

coordinate = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)

point_sets = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(min_value=1, max_value=60), st.just(2)),
    elements=coordinate,
)


#: Coordinates on a 1/8 grid: gaps, squares and their sums are exact in
#: floating point, so "exactly at the radius" (3-4-5 triangles, axis-aligned
#: offsets) is decided identically however the norm is accumulated.
grid = st.integers(min_value=-64, max_value=64).map(lambda k: k / 8.0)
extent = st.integers(min_value=0, max_value=32).map(lambda k: k / 8.0)
grid_point_sets = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(min_value=1, max_value=60), st.just(2)),
    elements=grid,
)


class TestRTreeProperties:
    @given(grid_point_sets, grid, grid, extent, extent,
           st.integers(min_value=0, max_value=160).map(lambda k: k / 8.0))
    # A degenerate box with points exactly at the radius (3-4-5 and axis-aligned),
    # just inside it and just outside it.
    @example(np.array([[3.0, 4.0], [5.0, 0.0], [0.0, -5.0], [4.875, 0.0], [3.0, 4.125]]),
             0.0, 0.0, 0.0, 0.0, 5.0)
    # A proper box: the same offsets measured from its corner and its faces.
    @example(np.array([[5.0, 5.0], [7.0, 1.5], [0.5, -4.0], [5.125, 5.0], [-3.0, -4.0]]),
             0.0, 0.0, 2.0, 1.0, 5.0)
    @settings(max_examples=60, deadline=None)
    def test_vectorised_radius_test_matches_rtree(self, points, x, y, width, height, radius):
        """The engine's one-pass retrieval ≡ the reference R-tree retrieval."""
        box = BoundingBox(np.array([x, y]), np.array([x + width, y + height]))
        tree = RTree(dimension=2, max_entries=6)
        tree.bulk_load(points)
        distances = _distances_to_boxes(points, [box])[:, 0]
        within = np.flatnonzero(distances <= radius)
        assert sorted(tree.search_within_distance(box, radius)) == within.tolist()

    @given(point_sets)
    @settings(max_examples=40, deadline=None)
    def test_structural_invariants(self, points):
        tree = RTree(dimension=2, max_entries=5)
        tree.bulk_load(points)
        tree.check_invariants()
        assert len(tree) == points.shape[0]
        assert sorted(tree.all_payloads()) == list(range(points.shape[0]))

    @given(point_sets, coordinate, coordinate, st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_distance_search_matches_brute_force(self, points, cx, cy, radius):
        tree = RTree(dimension=2, max_entries=6)
        tree.bulk_load(points)
        query = BoundingBox.from_point(np.array([cx, cy]))
        expected = {
            i for i, p in enumerate(points) if float(np.linalg.norm(p - np.array([cx, cy]))) <= radius
        }
        assert set(tree.search_within_distance(query, radius)) == expected

    @given(point_sets, coordinate, coordinate)
    @settings(max_examples=40, deadline=None)
    def test_nearest_matches_brute_force(self, points, cx, cy):
        tree = RTree(dimension=2, max_entries=6)
        tree.bulk_load(points)
        query = np.array([cx, cy])
        found = tree.nearest(query, k=1)[0]
        best = float(np.min(np.linalg.norm(points - query, axis=1)))
        assert float(np.linalg.norm(points[found] - query)) == pytest.approx(best, rel=1e-9)


class TestEmpiricalProperties:
    values = hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=1, max_value=80),
        elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    )

    @given(values)
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone_and_normalised(self, samples):
        dist = EmpiricalDistribution(samples)
        grid = np.sort(np.concatenate([samples, samples - 0.5, samples + 0.5]))
        cdf = dist.cdf(grid)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert dist.cdf(np.asarray(np.max(samples))) == 1.0
        assert dist.cdf(np.asarray(np.min(samples) - 1.0)) == 0.0

    @given(values, st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_quantile_consistency(self, samples, q):
        dist = EmpiricalDistribution(samples)
        x = float(dist.ppf(np.asarray(q)))
        assert dist.cdf(np.asarray(x)) >= q - 1e-12

    @given(values, st.floats(min_value=-1e3, max_value=1e3), st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_interval_probability_matches_cdf_difference(self, samples, a, width):
        dist = EmpiricalDistribution(samples)
        b = a + width
        prob = dist.interval_probability(a, b)
        assert 0.0 <= prob <= 1.0
        # Inclusive interval probability can exceed the CDF difference only by
        # the mass exactly at a.
        assert prob >= float(dist.cdf(np.asarray(b)) - dist.cdf(np.asarray(a))) - 1e-12


class TestEnvelopeBoundProperties:
    @st.composite
    @staticmethod
    def envelopes(draw):
        n = draw(st.integers(min_value=2, max_value=40))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
        means = rng.normal(size=n) * draw(st.floats(min_value=0.1, max_value=5.0))
        stds = np.abs(rng.normal(size=n)) * draw(st.floats(min_value=0.0, max_value=2.0))
        z = draw(st.floats(min_value=0.0, max_value=4.0))
        return build_envelope_outputs(means, stds, z)

    @given(envelopes(), st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_efficient_bound_matches_naive(self, envelope, lam):
        fast = gp_discrepancy_bound(envelope, lam)
        slow = gp_discrepancy_bound_naive(envelope, lam)
        assert abs(fast - slow) < 1e-9

    @given(envelopes(), st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_interval_bounds_bracket_the_estimate(self, envelope, a, width):
        rho_l, rho_hat, rho_u = interval_probability_bounds(envelope, a, a + width)
        assert rho_l - 1e-12 <= rho_hat <= rho_u + 1e-12


class TestIncrementalInverseProperties:
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_update_matches_direct_inverse(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        M = A @ A.T + n * np.eye(n)
        k_new = rng.normal(size=n)
        # Choose the self-covariance so the grown matrix is guaranteed to be
        # positive definite (Schur complement strictly positive).
        k_self = float(k_new @ np.linalg.solve(M, k_new) + 1.0 + abs(rng.normal()))
        grown = np.block([[M, k_new[:, None]], [k_new[None, :], np.array([[k_self]])]])
        updated = block_inverse_update(np.linalg.inv(M), k_new, k_self)
        assert np.allclose(updated @ grown, np.eye(n + 1), atol=1e-6)
