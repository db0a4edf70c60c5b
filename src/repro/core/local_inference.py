"""Local inference: GP prediction from a nearby subset of training points (§5.1).

Global GP inference costs ``O(m n^2)`` for ``m`` test samples and ``n``
training points.  Because stationary kernels decay with distance, training
points far from the input samples contribute almost nothing to the weighted
average that forms the predictive mean.  Local inference therefore

1. builds a bounding box around the input samples,
2. retrieves the training points within a search radius of that box (one
   vectorised point-to-box distance pass; the paper's R-tree retrieval
   survives as the reference :meth:`LocalInferenceEngine.select_points`),
3. bounds the *omitted* contribution ``γ = max_j |Σ_{l excluded}
   k(x_j, x_l) α_l|`` using the nearest / farthest points of the box
   (optionally per sub-box for a tighter bound), and
4. grows the search radius until ``γ ≤ Γ``, the local-inference threshold,

and then runs inference using only the selected subset: the predictive mean
uses the *global* weight vector α restricted to the subset (exactly the
approximation analysed in the paper), while the predictive variance uses the
local covariance matrix, which is where the ``O(l^3 + m l^2)`` cost comes
from.  The ``O(l^3)`` local inverse is memoised per model version by
:meth:`~repro.gp.regression.GaussianProcess.local_inverse`, so a quiet
stream of tuples selecting one subset factorises it once.

:meth:`LocalInferenceEngine.predict` (or :func:`global_inference` on a
model too small for retrieval) is the one inference step of the online
algorithm: every tuple's first pass, refinement re-check, retrained
re-inference, quarantine recompute and speculative estimate runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import GPError
from repro.gp.kernels import Kernel

# Unused here since every local inverse comes from the model's memo; the
# external profiler's install test (``perfbench/tests``) checks that this
# module's from-import of the name is rebound, so the binding stays.
from repro.gp.linalg import jittered_cholesky  # noqa: F401
from repro.gp.regression import GaussianProcess
from repro.index.bounding_box import BoundingBox
from repro.index.rtree import RTree


@dataclass(frozen=True)
class LocalInferenceResult:
    """Outcome of one local-inference call."""

    #: Predictive means at the input samples.
    means: np.ndarray
    #: Predictive standard deviations at the input samples.
    stds: np.ndarray
    #: Row indices (into the global training set) of the selected points.
    selected_indices: np.ndarray
    #: Upper bound on the omitted-weight error γ actually achieved.
    gamma: float
    #: Search radius at which the selection stopped.
    radius: float

    @property
    def n_selected(self) -> int:
        """Number of training points used for this inference."""
        return int(self.selected_indices.size)


def kernel_at_distance(kernel: Kernel, distances: np.ndarray) -> np.ndarray:
    """Evaluate an isotropic kernel as a function of Euclidean distance."""
    distances = np.atleast_1d(np.asarray(distances, dtype=float)).reshape(-1, 1)
    origin = np.zeros((1, 1))
    return kernel(origin, distances).ravel()


def omitted_weight_bound(
    kernel: Kernel,
    excluded_points: np.ndarray,
    excluded_alpha: np.ndarray,
    sample_box: BoundingBox,
    subdivisions: int = 2,
) -> float:
    """Upper bound on ``γ`` — the mean-prediction error of dropping points.

    For every excluded training point the kernel value at any sample is
    bracketed by its value at the farthest and nearest points of the sample
    bounding box; multiplying by the point's α weight and summing gives an
    interval containing the omitted contribution for *every* sample at once.
    Sub-dividing the sample box and taking the max over sub-boxes tightens
    the bound (the paper's implementation detail).
    """
    excluded_points = np.atleast_2d(np.asarray(excluded_points, dtype=float))
    excluded_alpha = np.asarray(excluded_alpha, dtype=float).ravel()
    if excluded_points.shape[0] == 0:
        return 0.0
    if excluded_points.shape[0] != excluded_alpha.size:
        raise GPError("excluded_points and excluded_alpha must align")
    boxes = sample_box.subdivide(max(1, subdivisions))
    worst = 0.0
    for box in boxes:
        near = np.array([box.min_distance_to(p) for p in excluded_points])
        far = np.array([box.max_distance_to(p) for p in excluded_points])
        k_near = kernel_at_distance(kernel, near)
        k_far = kernel_at_distance(kernel, far)
        low = np.minimum(k_near * excluded_alpha, k_far * excluded_alpha)
        high = np.maximum(k_near * excluded_alpha, k_far * excluded_alpha)
        gamma_box = max(abs(float(np.sum(low))), abs(float(np.sum(high))))
        worst = max(worst, gamma_box)
    return worst


def initial_search_radius(kernel: Kernel, alpha: np.ndarray, gamma_threshold: float) -> float:
    """Heuristic starting radius for the training-point retrieval.

    Solves ``k(r) * Σ|α| = Γ`` for the squared-exponential-like decay
    ``k(r) = σ_f² exp(-r²/(2 l²))``; beyond this radius even the worst-case
    sum of omitted weights is below the threshold, so it is a natural place
    to start before the exact bound refines the selection.
    """
    total_weight = float(np.sum(np.abs(alpha)))
    signal = kernel.signal_std**2
    if total_weight <= 0 or gamma_threshold >= signal * total_weight:
        return kernel.lengthscale
    ratio = signal * total_weight / gamma_threshold
    return kernel.lengthscale * math.sqrt(2.0 * math.log(ratio))


class LocalInferenceEngine:
    """Selects nearby training points and runs subset GP inference.

    ``bound_method`` chooses how the omitted contribution γ is bounded:

    * ``"exact"`` (default) evaluates ``γ = max_j |Σ_excluded k(x_j, x_l) α_l|``
      over the actual Monte-Carlo samples — an O(m·n) vectorised computation
      that allows positive and negative weights to cancel and therefore keeps
      very few points;
    * ``"box"`` is the paper's conservative bounding-box bound that never
      touches the individual samples (O(n) per check).
    """

    def __init__(
        self,
        gamma_threshold: float,
        subdivisions: int = 2,
        expansion_factor: float = 1.5,
        max_expansions: int = 30,
        bound_method: str = "exact",
    ):
        if gamma_threshold <= 0:
            raise GPError("gamma_threshold must be positive")
        if expansion_factor <= 1.0:
            raise GPError("expansion_factor must exceed 1")
        if bound_method not in ("exact", "box"):
            raise GPError(f"unknown bound_method {bound_method!r}")
        self.gamma_threshold = float(gamma_threshold)
        self.subdivisions = int(subdivisions)
        self.expansion_factor = float(expansion_factor)
        self.max_expansions = int(max_expansions)
        self.bound_method = bound_method

    # -- point selection ---------------------------------------------------------
    def select_points(
        self,
        gp: GaussianProcess,
        index: RTree,
        sample_box: BoundingBox,
        samples: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, float, float]:
        """Indices of the training points to keep, plus the achieved γ and radius.

        The paper-mapped *reference* retrieval: each radius expansion walks
        the R-tree and re-evaluates the kernel on the excluded points.  No
        engine path calls it — :meth:`predict` makes the same selection from
        one distance pass; tests and the Expt-1 bench compare the two.
        """
        if gp.n_training == 0:
            raise GPError("the GP has no training data")
        alpha = gp.alpha
        X = gp.X_train
        return self._expand_radius(
            gp,
            alpha,
            sample_box,
            lambda r: np.array(sorted(index.search_within_distance(sample_box, r)), dtype=int),
            None if samples is None else lambda out: gp.kernel(samples, X[out]) @ alpha[out],
        )

    def _expand_radius(
        self, gp: GaussianProcess, alpha: np.ndarray, sample_box: BoundingBox, within, omitted
    ) -> tuple[np.ndarray, float, float]:
        """The radius-expansion schedule both retrievals run.

        ``within(radius)`` returns the sorted training rows within ``radius``
        of the sample box; ``omitted(excluded_mask)``, when given, the excluded
        points' contribution at every sample (the ``"exact"`` γ).  Starts from
        half a lengthscale, so that a loose Γ selects genuinely few points,
        and grows the radius until the omitted weight is below Γ.
        """
        n = alpha.size
        radius = 0.5 * gp.kernel.lengthscale
        all_indices = np.arange(n)
        for _ in range(self.max_expansions):
            selected = within(radius)
            if selected.size == n:
                return all_indices, 0.0, radius
            excluded_mask = np.ones(n, dtype=bool)
            excluded_mask[selected] = False
            if omitted is not None and self.bound_method == "exact":
                gamma = float(np.max(np.abs(omitted(excluded_mask))))
            else:
                gamma = omitted_weight_bound(
                    gp.kernel,
                    gp.X_train[excluded_mask],
                    alpha[excluded_mask],
                    sample_box,
                    subdivisions=self.subdivisions,
                )
            if gamma <= self.gamma_threshold and selected.size > 0:
                return selected, gamma, radius
            radius *= self.expansion_factor
        return all_indices, 0.0, radius

    # -- subset inference -----------------------------------------------------------
    def predict(
        self,
        gp: GaussianProcess,
        samples: np.ndarray,
        sample_box: Optional[BoundingBox] = None,
    ) -> LocalInferenceResult:
        """Local inference at ``samples`` (rows), per Algorithm 4.

        One kernel evaluation against the training set and one point-to-box
        distance pass, which every radius expansion then reuses.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if gp.n_training == 0:
            raise GPError("the GP has no training data")
        box = sample_box if sample_box is not None else BoundingBox.from_points(samples)
        X = gp.X_train
        alpha = gp.alpha
        K_rows = gp.kernel(samples, X)
        distances = _distances_to_boxes(X, [box])[:, 0]
        selected, gamma, radius = self._select_from_distances(gp, alpha, distances, K_rows, box)
        K_star = K_rows if selected.size == K_rows.shape[1] else K_rows[:, selected]
        # Mean: global weights restricted to the local subset (the paper's f̂_L
        # approximation, whose error is bounded by γ), plus the GP's constant
        # mean offset.  Variance: exact GP variance of the local model.
        means = K_star @ alpha[selected] + gp.mean_offset
        projected = K_star @ gp.local_inverse(selected)
        np.multiply(projected, K_star, out=projected)
        variances = np.maximum(gp.kernel.diag(samples) - np.sum(projected, axis=1), 0.0)
        return LocalInferenceResult(
            means=means,
            stds=np.sqrt(variances),
            selected_indices=selected,
            gamma=gamma,
            radius=radius,
        )

    def _select_from_distances(
        self,
        gp: GaussianProcess,
        alpha: np.ndarray,
        distances: np.ndarray,
        K_rows: np.ndarray,
        sample_box: BoundingBox,
    ) -> tuple[np.ndarray, float, float]:
        """The selection :meth:`select_points` makes, from one distance / kernel pass.

        ``distances`` holds each training point's distance to the tuple box
        (what the R-tree's within-radius search tests), so a radius expansion
        is one threshold test; ``K_rows`` is the samples' cross-covariance
        with the whole training set, so the exact-γ check is a matvec with
        the kept weights zeroed (exact zeros contribute nothing) instead of
        a fresh kernel evaluation on the excluded points.

        The exact-γ schedule is :meth:`_expand_radius`'s without re-judging:
        the kept set only grows with the radius, so a level that keeps as
        many points as the last rejected one keeps the same points and is
        rejected again without the matvec — as is an empty set, which is
        never accepted.  The row indices are materialised on acceptance only.
        """
        if self.bound_method != "exact":
            return self._expand_radius(
                gp, alpha, sample_box, lambda radius: np.flatnonzero(distances <= radius), None
            )
        n = alpha.size
        radius = 0.5 * gp.kernel.lengthscale
        rejected = 0  # size of the last kept set whose γ exceeded Γ
        for _ in range(self.max_expansions):
            kept = distances <= radius
            count = int(np.count_nonzero(kept))
            if count == n:
                break
            if count != rejected:
                gamma = float(np.max(np.abs(K_rows @ np.where(kept, 0.0, alpha))))
                if gamma <= self.gamma_threshold:
                    return np.flatnonzero(kept), gamma, radius
                rejected = count
            radius *= self.expansion_factor
        return np.arange(n), 0.0, radius


class BatchKernelCache:
    """Retired name of the chunk-wide kernel cache; nothing uses it.

    Every tuple now infers through :meth:`LocalInferenceEngine.predict` (or
    :func:`global_inference`), whose local inverses the model memoises per
    version (:meth:`~repro.gp.regression.GaussianProcess.local_inverse`).
    The class stays importable because external tooling
    (``perfbench/tracing.py``) resolves it by module and name at install
    time and fails if it is gone.
    """


def _distances_to_boxes(X: np.ndarray, boxes: Sequence[BoundingBox]) -> np.ndarray:
    """``(n_points, n_boxes)`` Euclidean distances from points to boxes.

    Matches :meth:`BoundingBox.min_distance_to_box` for degenerate point
    boxes, which is exactly what the R-tree's within-radius search tests.
    """
    lows = np.stack([box.low for box in boxes])
    highs = np.stack([box.high for box in boxes])
    gaps = np.maximum(
        0.0,
        np.maximum(lows[None, :, :] - X[:, None, :], X[:, None, :] - highs[None, :, :]),
    )
    return np.linalg.norm(gaps, axis=2)


def global_inference(gp: GaussianProcess, samples: np.ndarray) -> LocalInferenceResult:
    """Standard (global) inference packaged in the same result type.

    Used as the comparison point in Expt 1 and as a fallback when no
    spatial index is available.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    means, stds = gp.predict(samples, return_std=True)
    return LocalInferenceResult(
        means=means,
        stds=stds,
        selected_indices=np.arange(gp.n_training),
        gamma=0.0,
        radius=float("inf"),
    )
