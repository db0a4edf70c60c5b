"""Error bounds for GP-emulated output distributions (§4.2–4.3).

Given the Monte-Carlo samples of the emulator's predictive mean and standard
deviation at the input samples, and a simultaneous band multiplier ``z``,
the three empirical output variables of the paper are

* ``Ŷ'``  — outputs of the posterior-mean emulator (what is returned to the
  user),
* ``Y'_S`` — outputs of the lower envelope function ``f̂ - z σ``, and
* ``Y'_L`` — outputs of the upper envelope function ``f̂ + z σ``.

Because the envelope contains any posterior sample function ``f̃`` with high
probability, the probability ``ρ̃`` that ``f̃(X)`` falls in an interval
``[a, b]`` is bracketed by ``ρ_L ≤ ρ̃ ≤ ρ_U`` (Proposition 4.1) with

``ρ_U = Pr[Y_S ≤ b] − Pr[Y_L ≤ a]`` and
``ρ_L = max(0, Pr[Y_L ≤ b] − Pr[Y_S ≤ a])``.

The GP-modelling contribution to the λ-discrepancy error is then

``ε_GP = sup_{b−a ≥ λ} max(ρ'_U − ρ̂', ρ̂' − ρ'_L)``,

computed here both by the paper's efficient sweep (Algorithm 3) and by a
quadratic reference used in tests.  The sweep's O(m log m) is the three
sorts the envelope's ECDFs already did: :func:`gp_discrepancy_bound` reads
those sorted arrays and gets everything else — the union grid, the three
CDFs on it, each left endpoint's first feasible right endpoint, the index
where ``F_L`` catches up with ``F_S`` — from two stable merges and one
cumulative histogram, never a binary search.
:func:`gp_discrepancy_bound_block` sweeps a window of envelopes at once,
one row each, to the same bits; its two index searches stay searches.  The
KS-metric bound follows Proposition 4.2, and
:func:`combine_bounds` applies Theorem 4.1 to merge the GP and Monte-Carlo
error contributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import ks_distance
from repro.distributions.empirical import EmpiricalDistribution
from repro.exceptions import AccuracyError, GPError


@dataclass(frozen=True)
class EnvelopeOutputs:
    """The three empirical output variables derived from one GP inference."""

    #: Output of the posterior-mean emulator (returned to the user).
    y_hat: EmpiricalDistribution
    #: Output of the lower envelope function ``f̂ - z σ``.
    y_lower: EmpiricalDistribution
    #: Output of the upper envelope function ``f̂ + z σ``.
    y_upper: EmpiricalDistribution
    #: Simultaneous band multiplier used to build the envelope.
    z_value: float

    @property
    def n_samples(self) -> int:
        """Number of Monte-Carlo samples backing the empirical variables."""
        return self.y_hat.size

    def output_range(self) -> float:
        """Width of the support of the mean-function output."""
        lo, hi = self.y_hat.support
        return hi - lo


def build_envelope_outputs(means: np.ndarray, stds: np.ndarray, z_value: float) -> EnvelopeOutputs:
    """Construct ``Ŷ'``, ``Y'_S`` and ``Y'_L`` from per-sample GP predictions."""
    means = np.asarray(means, dtype=float).ravel()
    stds = np.asarray(stds, dtype=float).ravel()
    if means.shape != stds.shape:
        raise GPError("means and stds must have the same shape")
    if np.any(stds < 0):
        raise GPError("standard deviations must be non-negative")
    if z_value < 0:
        raise GPError("z_value must be non-negative")
    return EnvelopeOutputs(
        y_hat=EmpiricalDistribution(means),
        y_lower=EmpiricalDistribution(means - z_value * stds),
        y_upper=EmpiricalDistribution(means + z_value * stds),
        z_value=z_value,
    )


def interval_probability_bounds(
    envelope: EnvelopeOutputs, a: float, b: float
) -> tuple[float, float, float]:
    """``(ρ'_L, ρ̂', ρ'_U)`` for a single interval ``[a, b]`` (Proposition 4.1)."""
    if b < a:
        raise AccuracyError(f"interval upper bound {b} is below lower bound {a}")
    f_s = envelope.y_lower.cdf
    f_l = envelope.y_upper.cdf
    f_h = envelope.y_hat.cdf
    rho_upper = float(f_s(np.asarray(b)) - f_l(np.asarray(a)))
    rho_lower = max(0.0, float(f_l(np.asarray(b)) - f_s(np.asarray(a))))
    rho_hat = float(f_h(np.asarray(b)) - f_h(np.asarray(a)))
    return rho_lower, rho_hat, min(1.0, rho_upper)


def _augmented_grid(envelope: EnvelopeOutputs, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Union grid of the three sample sets plus virtual ±infinity points.

    The quadratic reference's grid: one ``searchsorted`` per CDF, independent
    of the merge :func:`gp_discrepancy_bound` derives the same arrays from.
    """
    grid = np.unique(
        np.concatenate(
            [envelope.y_hat._sorted, envelope.y_lower._sorted, envelope.y_upper._sorted]
        )
    )
    pad = max(lam, 1.0) * 2.0 + 1.0
    grid = np.concatenate([[grid[0] - pad], grid, [grid[-1] + pad]])
    f_s = envelope.y_lower.cdf(grid)
    f_h = envelope.y_hat.cdf(grid)
    f_l = envelope.y_upper.cdf(grid)
    return grid, f_s, f_h, f_l


def _merged_grid(
    envelope: EnvelopeOutputs, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Augmented union grid and the three CDFs on it as integer counts.

    The three sample arrays are already sorted, so one stable argsort of
    their concatenation is a three-run merge; an element's position in the
    concatenation names its source, and the running source counts are the
    ``searchsorted(side="right")`` counts of the ECDFs.  A run of equal
    values collapses to its last position, which carries the run-final
    counts — the grid ``np.unique`` builds and the counts ``cdf`` returns
    on it.  Returns ``(grid, counts_S, counts_hat, counts_L)``.
    """
    y_h = envelope.y_hat._sorted
    y_s = envelope.y_lower._sorted
    y_l = envelope.y_upper._sorted
    concat = np.concatenate([y_h, y_s, y_l])
    perm = np.argsort(concat, kind="stable")
    merged = concat[perm]
    cum_h = np.cumsum(perm < y_h.size)
    cum_l = np.cumsum(perm >= y_h.size + y_s.size)
    is_end = np.empty(merged.size, dtype=bool)
    is_end[-1] = True
    np.not_equal(merged[1:], merged[:-1], out=is_end[:-1])
    if is_end.all():
        seen = np.arange(1, merged.size + 1)
    else:
        ends = np.flatnonzero(is_end)
        merged, cum_h, cum_l = merged[ends], cum_h[ends], cum_l[ends]
        seen = ends + 1
    n = merged.size + 2
    pad = max(lam, 1.0) * 2.0 + 1.0
    grid = np.empty(n)
    grid[0] = merged[0] - pad
    grid[1:-1] = merged
    grid[-1] = merged[-1] + pad
    counts = np.empty((3, n), dtype=np.intp)
    counts[0, 1:-1] = seen - cum_h - cum_l
    counts[1, 1:-1] = cum_h
    counts[2, 1:-1] = cum_l
    counts[:, -1] = (y_s.size, y_h.size, y_l.size)
    # The virtual left point sits below every sample unless the pad is
    # absorbed by a huge smallest value; it then *is* that value.
    counts[:, 0] = counts[:, 1] if grid[0] == grid[1] else 0
    return grid, counts[0], counts[1], counts[2]


def gp_discrepancy_bound(envelope: EnvelopeOutputs, lam: float) -> float:
    """Algorithm 3: the GP share ``ε_GP`` of the λ-discrepancy error bound.

    Sweeps left endpoints ``a`` over the union grid; for each, the supremum
    over right endpoints ``b ≥ a + λ`` decomposes into terms that only need
    pre-computed suffix maxima of ``F_S − F̂`` and ``F̂ − F_L`` plus the
    index of the first feasible ``b`` and of the first ``b`` with
    ``F_L(b) ≥ F_S(a)``.  Every key involved is already sorted, so those
    indices come from merges and count tables rather than binary searches
    (O(m) after the envelope's sorts).
    """
    if lam < 0:
        raise AccuracyError(f"lambda must be non-negative, got {lam}")
    grid, counts_s, counts_h, counts_l = _merged_grid(envelope, lam)
    n = grid.size
    m_s, m_l = envelope.y_lower.size, envelope.y_upper.size
    f_s = counts_s / m_s
    f_h = counts_h / envelope.y_hat.size
    f_l = counts_l / m_l
    d_sh = f_s - f_h  # >= 0 up to MC noise
    d_hl = f_h - f_l  # >= 0 up to MC noise

    # Suffix maxima: sufmax[i] = max over j >= i.
    sufmax_sh = np.maximum.accumulate(d_sh[::-1])[::-1]
    sufmax_hl = np.maximum.accumulate(d_hl[::-1])[::-1]

    # First feasible right endpoint of every left endpoint, i.e.
    # ``searchsorted(grid, grid + lam, side="left")``: merge the keys ahead
    # of the grid (stable, so a key precedes the grid values it ties with);
    # the k-th key then has k keys and its insertion index many grid values
    # before it.
    order = np.argsort(np.concatenate([grid + lam, grid]), kind="stable")
    first_feasible = np.flatnonzero(order < n) - np.arange(n)
    # The keys are non-decreasing, so the left endpoints with any feasible
    # right endpoint are a prefix: the candidate terms read slices.
    n_valid = int(np.searchsorted(first_feasible, n))
    if n_valid == 0:
        return 0.0
    ib_min = first_feasible[:n_valid]
    # For the rho_L > 0 region: first index where F_L(b) >= F_S(a), i.e.
    # ``searchsorted(f_l, f_s, side="left")``.  Over one sample size the
    # CDFs compare as their integer counts, and "how many grid points have
    # an L-count below c" is a cumulative histogram.
    if m_s == m_l:
        below = np.zeros(m_l + 2, dtype=np.intp)
        np.cumsum(np.bincount(counts_l, minlength=m_l + 1), out=below[1:])
        crossing = below[counts_s[:n_valid]]
    else:
        crossing = np.searchsorted(f_l, f_s[:n_valid], side="left")

    # Term A: rho'_U - rho_hat' = d_hl(a) + max_{b} d_sh(b).
    best = max(0.0, float(np.max(d_hl[:n_valid] + sufmax_sh[ib_min])))
    # Term B, region where rho'_L > 0: d_sh(a) + max_{b} d_hl(b).  Both
    # index arrays are non-decreasing, so the in-range endpoints are again
    # a prefix.
    ib1 = np.maximum(ib_min, crossing)
    in_range = int(np.searchsorted(ib1, n))
    if in_range:
        best = max(best, float(np.max(d_sh[:in_range] + sufmax_hl[ib1[:in_range]])))
    # Term B, region where rho'_L = 0 (b below the crossing): the bound is
    # rho_hat' itself, maximised at the largest feasible b in the region
    # because the mean CDF is non-decreasing.
    ib2 = np.minimum(crossing, n) - 1
    feasible = ib2 >= ib_min
    if np.any(feasible):
        best = max(best, float(np.max(f_h[ib2[feasible]] - f_h[:n_valid][feasible])))
    return float(min(1.0, best))


def gp_discrepancy_bound_block(envelopes, lam: float) -> np.ndarray:
    """Column-wise :func:`gp_discrepancy_bound` over many envelopes.

    Returns one bound per envelope, each bit-identical to the scalar call.
    One argsort of the ``(B, 3m)`` concatenation yields both the per-row
    union grids and, through each element's source (``Ŷ'``/``Y'_S``/
    ``Y'_L``), the three CDFs as cumulative source counts (the same integer
    counts ``searchsorted`` returns, divided by the same sample size).  The
    suffix maxima and the three candidate terms of Algorithm 3 are then
    evaluated for every row at once with masked ``take_along_axis`` gathers
    — the per-row values entering each maximum are exactly the scalar
    sweep's, so the maxima agree bitwise.  Only the feasibility
    ``searchsorted`` stays per row (it searches row-specific sorted
    arrays).  A ragged column (sample counts differing from the first)
    falls back to scalar calls wholesale.
    """
    envelopes = list(envelopes)
    if lam < 0:
        raise AccuracyError(f"lambda must be non-negative, got {lam}")
    if not envelopes:
        return np.zeros(0)
    m = envelopes[0].n_samples
    uniform = all(
        env.y_hat.size == m and env.y_lower.size == m and env.y_upper.size == m
        for env in envelopes
    )
    if not uniform or m == 0:
        return np.array([gp_discrepancy_bound(env, lam) for env in envelopes])
    concat = np.concatenate(
        [
            np.stack([env.y_hat._sorted for env in envelopes]),
            np.stack([env.y_lower._sorted for env in envelopes]),
            np.stack([env.y_upper._sorted for env in envelopes]),
        ],
        axis=1,
    )
    perm = np.argsort(concat, axis=1)
    stacked = np.take_along_axis(concat, perm, axis=1)
    pad = max(lam, 1.0) * 2.0 + 1.0
    return _sweep_block(stacked, perm, m, lam, pad)


def _sweep_block(
    rows: np.ndarray, perm: np.ndarray, m: int, lam: float, pad: float
) -> np.ndarray:
    """Batched Algorithm-3 sweep over the sorted union-grid rows.

    ``rows`` holds each envelope's sorted 3m-value union grid interior and
    ``perm`` an argsort that produced it; ``perm // m`` recovers which of
    the three sample sets each grid value came from, so cumulative source
    counts reproduce ``searchsorted(side="right")`` on the original sorted
    sample arrays exactly.  Tied values need one correction: the cumulative
    count midway through an equal-value run undercounts "values ≤ v", so
    every position of a run is assigned the run-final counts (gathered at
    the run-end index).  Each tied position then carries the exact CDF
    triple of its value — a duplicate of the entry the scalar path's
    deduplicated grid holds once — and duplicated candidates never change a
    maximum, so the sweep still matches the scalar result bitwise.  (With
    run-final counts the intra-run ordering of ``perm`` is irrelevant,
    which is also why a non-stable argsort is safe.)
    """
    n_rows, width = rows.shape
    n = width + 2
    grid = np.empty((n_rows, n))
    grid[:, 0] = rows[:, 0] - pad
    grid[:, 1:-1] = rows
    grid[:, -1] = rows[:, -1] + pad
    source = perm // m  # 0 = y_hat, 1 = y_lower, 2 = y_upper
    cum_s = np.cumsum(source == 1, axis=1)
    cum_l = np.cumsum(source == 2, axis=1)
    is_end = np.empty((n_rows, width), dtype=bool)
    is_end[:, -1] = True
    np.not_equal(rows[:, 1:], rows[:, :-1], out=is_end[:, :-1])
    if is_end.all():
        run_end = None
        cs, cl = cum_s, cum_l
        ch = np.arange(1, width + 1)[None, :] - cs - cl
    else:
        run_end = np.minimum.accumulate(
            np.where(is_end, np.arange(width), width)[:, ::-1], axis=1
        )[:, ::-1]
        cs = np.take_along_axis(cum_s, run_end, axis=1)
        cl = np.take_along_axis(cum_l, run_end, axis=1)
        ch = (run_end + 1) - cs - cl
    icounts_s = np.empty((n_rows, n), dtype=np.int64)
    icounts_l = np.empty((n_rows, n), dtype=np.int64)
    icounts_h = np.empty((n_rows, n), dtype=np.int64)
    for icounts, interior in ((icounts_s, cs), (icounts_l, cl), (icounts_h, ch)):
        icounts[:, 0] = 0
        icounts[:, 1:-1] = interior
        icounts[:, -1] = m
    f_s = icounts_s / m
    f_h = icounts_h / m
    f_l = icounts_l / m
    d_sh = f_s - f_h
    d_hl = f_h - f_l
    sufmax_sh = np.maximum.accumulate(d_sh[:, ::-1], axis=1)[:, ::-1]
    sufmax_hl = np.maximum.accumulate(d_hl[:, ::-1], axis=1)[:, ::-1]
    targets = grid + lam
    first_feasible = np.empty((n_rows, n), dtype=np.intp)
    for b in range(n_rows):
        first_feasible[b] = np.searchsorted(grid[b], targets[b], side="left")
    # ``crossing`` compares CDF values that are integer counts over the same
    # sample size, so the search runs in the count domain — where shifting
    # each row by ``row * (m + 1)`` is exact int64 arithmetic that makes the
    # flattened matrix globally sorted and every query land inside its own
    # row's segment.  One flat ``searchsorted`` then answers all rows with
    # exactly the per-row comparison outcomes.
    shift = (m + 1) * np.arange(n_rows, dtype=np.int64)[:, None]
    flat_pos = np.searchsorted(
        (icounts_l + shift).ravel(), (icounts_s + shift).ravel(), side="left"
    )
    crossing = flat_pos.reshape(n_rows, n) - n * np.arange(n_rows, dtype=np.intp)[:, None]
    valid = first_feasible < n
    ff = np.minimum(first_feasible, n - 1)
    # Term A: rho'_U - rho_hat' = d_hl(a) + max_{b} d_sh(b).  Invalid left
    # endpoints are masked to -inf in place — the row maxima then range over
    # exactly the candidate values the scalar sweep maximises.
    term_a = np.take_along_axis(sufmax_sh, ff, axis=1)
    term_a += d_hl
    term_a[~valid] = -np.inf
    best = term_a.max(axis=1)
    # Term B, rho'_L > 0 region: d_sh(a) + max_{b} d_hl(b).
    ib1 = np.maximum(ff, crossing)
    mask_b1 = valid & (ib1 < n)
    np.minimum(ib1, n - 1, out=ib1)
    term_b1 = np.take_along_axis(sufmax_hl, ib1, axis=1)
    term_b1 += d_sh
    term_b1[~mask_b1] = -np.inf
    np.maximum(best, term_b1.max(axis=1), out=best)
    # Term B, rho'_L = 0 region: rho_hat' at the largest feasible b below
    # the crossing.
    ib2 = np.minimum(crossing, n) - 1
    mask_b2 = valid & (ib2 >= ff)
    np.clip(ib2, 0, n - 1, out=ib2)
    term_b2 = np.take_along_axis(f_h, ib2, axis=1)
    term_b2 -= f_h
    term_b2[~mask_b2] = -np.inf
    np.maximum(best, term_b2.max(axis=1), out=best)
    np.maximum(best, 0.0, out=best)
    return np.minimum(best, 1.0)


def gp_discrepancy_bound_naive(envelope: EnvelopeOutputs, lam: float) -> float:
    """Quadratic reference implementation of :func:`gp_discrepancy_bound`.

    Enumerates every feasible interval on the augmented grid.  Used by tests
    to validate the efficient sweep; O(m^2).
    """
    if lam < 0:
        raise AccuracyError(f"lambda must be non-negative, got {lam}")
    grid, f_s, f_h, f_l = _augmented_grid(envelope, lam)
    n = grid.size
    best = 0.0
    for ia in range(n):
        for ib in range(ia, n):
            if grid[ib] - grid[ia] < lam:
                continue
            rho_upper = f_s[ib] - f_l[ia]
            rho_lower = max(0.0, f_l[ib] - f_s[ia])
            rho_hat = f_h[ib] - f_h[ia]
            best = max(best, rho_upper - rho_hat, rho_hat - rho_lower)
    return float(min(1.0, best))


def gp_ks_bound(envelope: EnvelopeOutputs) -> float:
    """KS-metric GP error bound (Proposition 4.2).

    The KS distance between the mean-function output and any envelope-
    constrained sample-function output is maximised when the sample function
    sits on one of the envelope boundaries, so the bound is the larger of
    the KS distances to ``Y'_S`` and ``Y'_L``.
    """
    return max(
        ks_distance(envelope.y_hat, envelope.y_lower),
        ks_distance(envelope.y_hat, envelope.y_upper),
    )


@dataclass(frozen=True)
class CombinedErrorBound:
    """Theorem 4.1: total error bound from the GP and MC contributions."""

    epsilon_gp: float
    epsilon_mc: float
    delta_gp: float
    delta_mc: float

    @property
    def epsilon_total(self) -> float:
        """Total error bound ``ε_GP + ε_MC``."""
        return self.epsilon_gp + self.epsilon_mc

    @property
    def confidence(self) -> float:
        """Probability with which the total bound holds: ``(1-δ_GP)(1-δ_MC)``."""
        return (1.0 - self.delta_gp) * (1.0 - self.delta_mc)

    def satisfies(self, epsilon: float, delta: float) -> bool:
        """Whether this bound meets a user requirement ``(ε, δ)``."""
        return self.epsilon_total <= epsilon + 1e-12 and self.confidence >= (1.0 - delta) - 1e-12


def combine_bounds(
    epsilon_gp: float, epsilon_mc: float, delta_gp: float, delta_mc: float
) -> CombinedErrorBound:
    """Apply Theorem 4.1 to merge the two independent error sources."""
    for name, value in (("epsilon_gp", epsilon_gp), ("epsilon_mc", epsilon_mc)):
        if value < 0:
            raise AccuracyError(f"{name} must be non-negative, got {value}")
    for name, value in (("delta_gp", delta_gp), ("delta_mc", delta_mc)):
        if not (0.0 <= value < 1.0):
            raise AccuracyError(f"{name} must be in [0, 1), got {value}")
    return CombinedErrorBound(
        epsilon_gp=epsilon_gp,
        epsilon_mc=epsilon_mc,
        delta_gp=delta_gp,
        delta_mc=delta_mc,
    )
