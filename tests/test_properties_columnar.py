"""Property-based tests (hypothesis) for the batch forms kept by name.

Each batch form carries a *bit-identity* claim against its scalar
counterpart; these properties search for counterexamples over random
shapes — including the degenerate ones (B = 0, B = 1, single-sample rows,
tie-heavy sample blocks) where off-by-one errors in batched index algebra
hide.  The file name is historical: the columnar encoding and its stacked
Monte-Carlo draw are gone, every tuple draws its own samples.

* the batch forms external profiling tools bind by name —
  :func:`repro.gp.linalg.stacked_jittered_cholesky`,
  :func:`repro.core.error_bounds.gp_discrepancy_bound_block` and
  :func:`repro.core.confidence_bands.band_z_values` — keep their shapes
  and equal their scalar twins, including the jitter escalation and the
  ragged and empty columns.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.confidence_bands import band_z_value, band_z_values
from repro.core.error_bounds import (
    build_envelope_outputs,
    gp_discrepancy_bound,
    gp_discrepancy_bound_block,
)
from repro.gp.kernels import Matern32, SquaredExponential
from repro.gp.linalg import jittered_cholesky, stacked_jittered_cholesky
from repro.index.bounding_box import BoundingBox

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=20.0, allow_nan=False, allow_infinity=False)

# Values drawn from a small grid so random sample blocks are tie-heavy —
# the regime where the bound sweep's CDF counts must agree with
# searchsorted's semantics.
tie_prone = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


# ---------------------------------------------------------------------------
# Batch forms bound by name: each is its scalar twin over a column
# ---------------------------------------------------------------------------

@given(
    b=st.integers(min_value=0, max_value=5),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    singular=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_stacked_cholesky_matches_per_matrix_loop(b, n, seed, singular):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((b, n, n))
    mats = mats @ mats.transpose(0, 2, 1) + float(n) * np.eye(n)
    if singular and b > 0:
        # A rank-deficient member escalates its jitter; the stack must
        # report that member's exact jitter sequence and leave the others'.
        v = rng.standard_normal((n, 1))
        mats[0] = v @ v.T
    stacked_l, stacked_jitter = stacked_jittered_cholesky(mats)
    assert stacked_l.shape == (b, n, n) and stacked_jitter.shape == (b,)
    for i in range(b):
        scalar_l, scalar_jitter = jittered_cholesky(mats[i])
        assert scalar_jitter == stacked_jitter[i], i
        assert np.array_equal(stacked_l[i], scalar_l), i


def _random_envelopes(data, b, m):
    envelopes = []
    for _ in range(b):
        means = np.array([data.draw(tie_prone) for _ in range(m)])
        stds = np.array(
            [data.draw(st.sampled_from([0.0, 0.25, 1.0])) for _ in range(m)]
        )
        z = data.draw(st.sampled_from([0.0, 0.5, 1.5]))
        envelopes.append(build_envelope_outputs(means, stds, z))
    return envelopes


@given(
    data=st.data(),
    b=st.integers(min_value=0, max_value=6),
    m=st.integers(min_value=1, max_value=12),
    lam=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
)
@settings(max_examples=80, deadline=None)
def test_bound_block_matches_scalar_sweep(data, b, m, lam):
    """The column form equals the scalar Algorithm-3 bound bitwise on
    random tie-heavy envelope columns, including B = 0, B = 1 and m = 1."""
    envelopes = _random_envelopes(data, b, m)
    block = gp_discrepancy_bound_block(envelopes, lam)
    assert block.shape == (b,)
    scalar = np.array([gp_discrepancy_bound(env, lam) for env in envelopes])
    assert np.array_equal(block, scalar)


@given(data=st.data(), lam=st.sampled_from([0.0, 0.3]))
@settings(max_examples=20, deadline=None)
def test_bound_block_ragged_fallback_matches_scalar(data, lam):
    """Envelopes of mismatched sample counts in one column still agree."""
    envelopes = _random_envelopes(data, 2, 3) + _random_envelopes(data, 1, 5)
    block = gp_discrepancy_bound_block(envelopes, lam)
    scalar = np.array([gp_discrepancy_bound(env, lam) for env in envelopes])
    assert np.array_equal(block, scalar)


@given(
    data=st.data(),
    b=st.integers(min_value=0, max_value=5),
    method=st.sampled_from(["euler", "bonferroni", "pointwise"]),
    kernel=st.sampled_from(
        [SquaredExponential(lengthscale=1.5), Matern32(lengthscale=2.0)]
    ),
)
@settings(max_examples=40, deadline=None)
def test_band_z_values_matches_per_box_calibration(data, b, method, kernel):
    boxes = []
    for _ in range(b):
        low = np.array([data.draw(finite)])
        width = data.draw(st.floats(min_value=0.1, max_value=4.0))
        boxes.append(BoundingBox(low=low, high=low + width))
    n_points = 64 if method == "bonferroni" else None
    column = band_z_values(kernel, boxes, method=method, n_points=n_points)
    assert len(column) == b
    for band, box in zip(column, boxes):
        single = band_z_value(kernel, box, method=method, n_points=n_points)
        assert band.z_value == single.z_value
        assert band.method == single.method
