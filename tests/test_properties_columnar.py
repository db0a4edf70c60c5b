"""Property-based tests (hypothesis) for the columnar column kernels.

Every columnar hot path carries a *bit-identity* claim against its scalar
counterpart; these properties search for counterexamples over random
shapes — including the degenerate ones (B = 0, B = 1, single-sample rows,
tie-heavy sample blocks) where off-by-one errors in batched index algebra
hide:

* encode → hydrate round-trips every supported column family exactly, and
  the stacked Monte-Carlo draw equals the per-row loop draw for draw;
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
from repro.distributions.columns import (
    COLUMN_FAMILIES,
    attempt_encode,
    sample_stacked,
    stacking_supported,
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
# Column encoding: round-trip and stacked sampling
# ---------------------------------------------------------------------------

FAMILY_PARAM_STRATEGIES = {
    "gaussian": st.tuples(finite, positive),
    "uniform": st.tuples(finite, positive).map(lambda p: (p[0], p[0] + p[1])),
    "exponential": st.tuples(positive, finite),
    "gamma": st.tuples(positive, positive, finite),
    "point": st.tuples(finite),
}


def _hydrate_family(family, rows):
    cls, _ = COLUMN_FAMILIES[family]
    return [cls(*row) for row in rows]


@given(
    family=st.sampled_from(sorted(FAMILY_PARAM_STRATEGIES)),
    data=st.data(),
    n=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_encode_hydrate_round_trip(family, data, n):
    rows = [data.draw(FAMILY_PARAM_STRATEGIES[family]) for _ in range(n)]
    originals = _hydrate_family(family, rows)
    column = attempt_encode(originals)
    assert column is not None and column.family == family and len(column) == n
    _, names = COLUMN_FAMILIES[family]
    for original, hydrated in zip(originals, column.hydrate_all()):
        assert type(hydrated) is type(original)
        if family == "point":
            assert np.array_equal(hydrated.value, original.value)
        else:
            for name in names:
                assert getattr(hydrated, name) == getattr(original, name)


@given(
    family=st.sampled_from(sorted(FAMILY_PARAM_STRATEGIES)),
    data=st.data(),
    n=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_stacked_sampling_matches_per_row_loop(family, data, n, m, seed):
    """One broadcast draw over the column consumes the shared random stream
    exactly as the per-tuple loop does — the determinism contract."""
    if not stacking_supported():
        pytest.skip("platform fails the stacking identity probes")
    rows = [data.draw(FAMILY_PARAM_STRATEGIES[family]) for _ in range(n)]
    column = attempt_encode(_hydrate_family(family, rows))
    block = sample_stacked(column, m, np.random.default_rng(seed))
    loop_rng = np.random.default_rng(seed)
    for i in range(n):
        expected = column.hydrate(i).sample(m, random_state=loop_rng)
        assert np.array_equal(block[i], np.asarray(expected).reshape(m, 1)), i


def test_heterogeneous_and_empty_columns_do_not_encode():
    from repro.distributions.continuous import Gaussian, Uniform

    assert attempt_encode([]) is None
    assert attempt_encode([Gaussian(0.0, 1.0), Uniform(0.0, 1.0)]) is None


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
