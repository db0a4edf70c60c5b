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
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import GPError
from repro.gp.kernels import Kernel
from repro.gp.linalg import inverse_from_cholesky, jittered_cholesky
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
        selection = self._select_from_distances(gp, alpha, distances, K_rows, box)
        X_local = X[selection[0]]
        K_local_inv = _noise_augmented_inverse(gp.kernel(X_local, X_local), gp.effective_noise())
        return _subset_inference(gp, alpha, samples, K_rows, selection, K_local_inv)

    # -- multi-query (batched) inference -------------------------------------------
    def predict_multi(
        self,
        gp: GaussianProcess,
        sample_sets: Sequence[np.ndarray],
        sample_boxes: Optional[Sequence[BoundingBox]] = None,
    ) -> list[LocalInferenceResult]:
        """Local inference for many tuples' sample sets in one pass.

        Produces the same numbers as calling :meth:`predict` once per sample
        set, but shares the expensive pieces across the batch through a
        :class:`BatchKernelCache`.
        """
        sample_sets = list(sample_sets)  # materialise once: generators welcome
        if not sample_sets:
            return []
        cache = BatchKernelCache(gp, sample_sets, sample_boxes)
        return [self.predict_cached(gp, cache, i) for i in range(len(cache.sample_sets))]

    def predict_cached_block(
        self, gp: GaussianProcess, cache: "BatchKernelCache", indices: Sequence[int]
    ) -> list[LocalInferenceResult]:
        """Column-wise :meth:`predict_cached` with grouped kernel algebra.

        Produces bit-identical results to calling :meth:`predict_cached`
        per index: the per-tuple selection loop is replayed unchanged (it
        is data-dependent), but tuples that selected the *same* training
        subset — the common case under a warm model, and always the case
        when every box sits within the first search radius — share one
        tall GEMM for the variance row-sums.  BLAS computes each row block
        of a tall matrix-matrix product exactly as it computes the block
        alone (verified at import by
        :func:`repro.distributions.columns.stacking_supported`; callers
        gate on it).  The means are matrix-*vector* products, whose blocking
        depends on the row count, so they are taken per row block.
        """
        indices = list(indices)
        alpha = gp.alpha
        row_blocks = [cache.rows(gp, i) for i in indices]
        selections = self._select_from_distances_block(
            gp,
            alpha,
            cache.box_distances[:, indices],
            row_blocks,
            [cache.boxes[i] for i in indices],
        )
        groups: dict[bytes, list[int]] = {}
        for pos in range(len(indices)):
            groups.setdefault(selections[pos][0].tobytes(), []).append(pos)
        results: list[Optional[LocalInferenceResult]] = [None] * len(indices)
        for positions in groups.values():
            grouped = _grouped_inference(
                gp,
                alpha,
                [cache.sample_sets[indices[pos]] for pos in positions],
                [row_blocks[pos] for pos in positions],
                [selections[pos] for pos in positions],
                cache.local_inverse(gp, selections[positions[0]][0]),
            )
            for pos, result in zip(positions, grouped):
                results[pos] = result
        return [result for result in results if result is not None]

    def predict_cached(
        self, gp: GaussianProcess, cache: "BatchKernelCache", i: int
    ) -> LocalInferenceResult:
        """Local inference for tuple ``i`` of a batch, via the shared cache.

        Matches :meth:`predict` on ``cache.sample_sets[i]`` exactly: the
        per-tuple radius-expansion / exact-γ selection loop is replayed on
        the cached cross-covariance slice and distance column, and the local
        covariance inverse is cached per distinct selected subset.
        """
        K_rows = cache.rows(gp, i)
        alpha = gp.alpha
        selection = self._select_from_distances(
            gp, alpha, cache.box_distances[:, i], K_rows, cache.boxes[i]
        )
        K_local_inv = cache.local_inverse(gp, selection[0])
        return _subset_inference(gp, alpha, cache.sample_sets[i], K_rows, selection, K_local_inv)

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
        """
        return self._expand_radius(
            gp,
            alpha,
            sample_box,
            lambda radius: np.flatnonzero(distances <= radius),
            lambda excluded: K_rows @ np.where(excluded, alpha, 0.0),
        )

    def _select_from_distances_block(
        self,
        gp: GaussianProcess,
        alpha: np.ndarray,
        distances: np.ndarray,
        row_blocks: Sequence[np.ndarray],
        sample_boxes: Sequence[BoundingBox],
    ) -> list[tuple[np.ndarray, float, float]]:
        """Column-wise :meth:`_select_from_distances` over a chunk of tuples.

        Replays the same radius-expansion schedule for every tuple at once:
        one broadcast threshold test per level replaces the per-tuple
        ``flatnonzero`` scans, and tuples whose excluded sets coincide at a
        level — the common case under a warm model — share one stacked
        exact-γ matvec whose row-block slices equal the per-tuple products
        (the identity :func:`repro.distributions.columns.stacking_supported`
        probes; callers gate on it).  Interval-bound configurations keep the
        scalar loop, which is the only path exercising the box-geometry
        bound.
        """
        n, count = distances.shape
        if self.bound_method != "exact":
            return [
                self._select_from_distances(
                    gp, alpha, distances[:, pos], row_blocks[pos], sample_boxes[pos]
                )
                for pos in range(count)
            ]
        radius = 0.5 * gp.kernel.lengthscale
        all_indices = np.arange(n)
        results: list[Optional[tuple[np.ndarray, float, float]]] = [None] * count
        uniform = len({block.shape for block in row_blocks}) == 1
        pending = list(range(count))
        for _ in range(self.max_expansions):
            if not pending:
                break
            mask = distances[:, pending] <= radius
            n_selected = mask.sum(axis=0)
            need_gamma: list[tuple[int, int]] = []
            for col, pos in enumerate(pending):
                if int(n_selected[col]) == n:
                    results[pos] = (all_indices, 0.0, radius)
                else:
                    need_gamma.append((col, pos))
            still_pending: list[int] = []
            if need_gamma:
                cols = [col for col, _ in need_gamma]
                positions = [pos for _, pos in need_gamma]
                # Exact zeros for the kept weights: each row's matvec then
                # equals the per-tuple kernel(samples, X_excluded) @ alpha
                # product.  One batched matmul covers every pending tuple's
                # exact-γ check — its per-item products are the 2-D matvecs
                # they replace (identity 4 of the stacking probe) — and the
                # operand is a free reshape whenever the row blocks are
                # adjacent slices of the armed stack.
                excluded = np.where(mask[:, cols].T, 0.0, alpha[None, :])
                gammas: list[float] = []
                if uniform:
                    rows = row_blocks[positions[0]].shape[0]
                    for batch in _row_batches([rows] * len(positions), n):
                        tall = _stacked_rows([row_blocks[positions[k]] for k in batch])
                        stack3 = tall.reshape(len(batch), rows, n)
                        omitted = np.matmul(
                            stack3, excluded[batch[0] : batch[-1] + 1, :, None]
                        )[:, :, 0]
                        gammas.extend(np.abs(omitted).max(axis=1).tolist())
                else:
                    for k, pos in enumerate(positions):
                        omitted = row_blocks[pos] @ excluded[k]
                        gammas.append(float(np.max(np.abs(omitted))))
                selected_cache: dict[bytes, np.ndarray] = {}
                for (col, pos), gamma in zip(need_gamma, gammas):
                    if gamma <= self.gamma_threshold:
                        key = np.ascontiguousarray(mask[:, col]).tobytes()
                        selected = selected_cache.get(key)
                        if selected is None:
                            selected = np.flatnonzero(mask[:, col])
                            selected_cache[key] = selected
                        if selected.size > 0:
                            results[pos] = (selected, float(gamma), radius)
                            continue
                    still_pending.append(pos)
            pending = still_pending
            radius *= self.expansion_factor
        for pos in pending:
            results[pos] = (all_indices, 0.0, radius)
        return [result for result in results if result is not None]


#: Cap on stacked-operand elements (rows × columns) for grouped GEMMs.  A
#: tall product is computed in row batches under this cap: the batches'
#: results are identical to the monolithic product (row-block identity), but
#: the operands stay cache-resident instead of streaming multi-megabyte
#: temporaries through memory — which measures *slower* than a per-tuple loop.
_MAX_STACK_ELEMENTS = 262_144

#: Sample rows per grouped kernel evaluation when arming a columnar stack:
#: large enough to amortise the kernel's per-call array passes, small enough
#: that the grouped distance/exponential temporaries stay cache-resident.
_ARM_GROUP_ROWS = 1024


def _stacked_rows(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The vertical concatenation of ``blocks``, as a view when possible.

    The columnar cache serves row blocks as consecutive slices of one armed
    stack, so concatenating them back is a no-op — this detects that case
    (same C-contiguous base, adjacent row ranges) and returns a slice of the
    base instead of copying.  The view holds exactly the values ``vstack``
    would copy, so downstream kernels see identical operands.
    """
    first = blocks[0]
    base = first.base
    width = first.shape[1]
    if (
        base is None
        or not base.flags["C_CONTIGUOUS"]
        or base.shape[-1] != width
        or base.size % width != 0
    ):
        return np.vstack(blocks)
    itemsize = first.itemsize
    pointer = first.__array_interface__["data"][0]
    expected = pointer
    total = 0
    for block in blocks:
        if (
            block.base is not base
            or block.ndim != 2
            or block.shape[1] != width
            or not block.flags["C_CONTIGUOUS"]
            or block.__array_interface__["data"][0] != expected
        ):
            return np.vstack(blocks)
        expected += block.nbytes
        total += block.shape[0]
    flat = base.reshape(-1, width)
    start = (pointer - base.__array_interface__["data"][0]) // (width * itemsize)
    return flat[start : start + total]


def _row_batches(counts: Sequence[int], n_cols: int) -> list[list[int]]:
    """Partition block positions so each stacked operand stays under the cap."""
    width = max(int(n_cols), 1)
    batches: list[list[int]] = []
    current: list[int] = []
    elements = 0
    for pos, rows in enumerate(counts):
        cost = int(rows) * width
        if current and elements + cost > _MAX_STACK_ELEMENTS:
            batches.append(current)
            current = []
            elements = 0
        current.append(pos)
        elements += cost
    if current:
        batches.append(current)
    return batches


class BatchKernelCache:
    """Shared kernel / geometry state for a batch of tuples' sample sets.

    Holds, for a chunk of tuples, everything multi-query inference reuses:

    * per-tuple cross-covariance row blocks, built lazily by :meth:`rows` —
      one kernel evaluation per tuple that the radius-expansion exact-γ
      checks, the predictive mean and the predictive variance all reuse
      (:meth:`LocalInferenceEngine.predict` evaluates the same block once
      per call),
    * ``K_train`` — training covariance (local sub-matrices slice it),
    * ``box_distances`` — every training point's distance to every tuple's
      bounding box (the within-radius retrieval is a threshold test), and
    * a per-subset cache of local covariance inverses (with a warm model
      neighbouring tuples usually select the same subset, so the
      ``O(l^3)`` factorisation is paid once).

    :meth:`sync` keeps the cache valid while the model evolves mid-batch:
    new training points append kernel *columns* / distance *rows* (cheap),
    and a hyperparameter change (retraining) rebuilds — lazily, so tuples
    processed after a retrain never pay for stale eager work.  All cached
    entries are elementwise identical to fresh kernel evaluations, which is
    what keeps the batched pipeline numerically equivalent to per-tuple
    execution.
    """

    def __init__(
        self,
        gp: GaussianProcess,
        sample_sets: Sequence[np.ndarray],
        sample_boxes: Optional[Sequence[BoundingBox]] = None,
    ):
        self.sample_sets = [np.atleast_2d(np.asarray(s, dtype=float)) for s in sample_sets]
        if not self.sample_sets:
            raise GPError("BatchKernelCache needs at least one sample set")
        self.boxes = (
            list(sample_boxes)
            if sample_boxes is not None
            else [BoundingBox.from_points(s) for s in self.sample_sets]
        )
        if len(self.boxes) != len(self.sample_sets):
            raise GPError("sample_boxes and sample_sets must align")
        if gp.n_training == 0:
            raise GPError("the GP has no training data")
        self._row_block: Optional[np.ndarray] = None
        self._row_index: Optional[int] = None
        self._row_n_train = 0
        self._rebuild(gp)

    def sync(self, gp: GaussianProcess) -> None:
        """Bring the cache up to date with the GP's current state."""
        theta = gp.kernel.theta.tobytes()
        if theta != self._theta:
            self._rebuild(gp)
            return
        if gp.n_training == self._n_train:
            return
        if gp.n_training < self._n_train:
            # The model shrank — a speculative multi-point addition was rolled
            # back.  Cached blocks are row/column-aligned with the training
            # set, so truncate them back to the surviving prefix (rollback
            # always restores a prefix state) and drop subset inverses that
            # may reference evicted rows.
            n = gp.n_training
            self.K_train = self.K_train[:n, :n]
            self.box_distances = self.box_distances[:n]
            if self._row_block is not None and self._row_n_train > n:
                self._row_block = self._row_block[:, :n]
                self._row_n_train = n
            self._n_train = n
            self._inverse_cache.clear()
            return
        X = gp.X_train
        X_new = X[self._n_train :]
        cross = gp.kernel(X[: self._n_train], X_new)
        block = gp.kernel(X_new, X_new)
        self.K_train = np.block([[self.K_train, cross], [cross.T, block]])
        self.box_distances = np.vstack(
            [self.box_distances, _distances_to_boxes(X_new, self.boxes)]
        )
        self._n_train = gp.n_training
        self._inverse_cache.clear()

    def rows(self, gp: GaussianProcess, i: int) -> np.ndarray:
        """Cross-covariance between tuple ``i``'s samples and the training set.

        Built on first use per tuple and kept in sync with model growth by
        appending columns for new training points, so one tuple's repeated
        inferences (initial bound check plus every refinement iteration)
        share a single base kernel evaluation.
        """
        self.sync(gp)
        if self._row_index == i and self._row_n_train == self._n_train:
            return self._row_block
        if self._row_index == i and 0 < self._row_n_train < self._n_train:
            X_new = gp.X_train[self._row_n_train :]
            self._row_block = np.hstack(
                [self._row_block, gp.kernel(self.sample_sets[i], X_new)]
            )
        else:
            self._row_block = gp.kernel(self.sample_sets[i], gp.X_train)
            self._row_index = i
        self._row_n_train = self._n_train
        return self._row_block

    def invalidate_rows(self) -> None:
        """Drop the one-slot cross-covariance row memo.

        The pipeline scheduler calls this before a commit-time re-inference:
        a speculative stage may have left a *partially grown* row block for
        the same tuple behind, and appending the missing columns instead of
        rebuilding could differ from a fresh evaluation in the last ulp —
        enough to diverge from the serial batched trajectory on a knife
        edge.  Invalidation forces the next :meth:`rows` call to rebuild the
        block exactly as the serial path would.
        """
        self._row_block = None
        self._row_index = None
        self._row_n_train = 0

    def local_inverse(self, gp: GaussianProcess, selected: np.ndarray) -> np.ndarray:
        """Inverse of the noise-augmented local covariance for a subset."""
        key = selected.tobytes()
        inverse = self._inverse_cache.get(key)
        if inverse is None:
            inverse = self._inverse_cache[key] = _noise_augmented_inverse(
                self.K_train[np.ix_(selected, selected)], gp.effective_noise()
            )
        return inverse

    def _rebuild(self, gp: GaussianProcess) -> None:
        X = gp.X_train
        self.K_train = gp.kernel(X, X)
        self.box_distances = _distances_to_boxes(X, self.boxes)
        self._theta = gp.kernel.theta.tobytes()
        self._n_train = gp.n_training
        self._row_index = None
        self._row_block = None
        self._row_n_train = 0
        self._inverse_cache: dict[bytes, np.ndarray] = {}


class ColumnarKernelCache(BatchKernelCache):
    """A :class:`BatchKernelCache` whose row blocks come from one stacked eval.

    The tuple-store cache evaluates ``kernel(samples_i, X_train)`` lazily,
    once per tuple.  The columnar cache *arms* instead: it evaluates the
    kernel once on the vertical stack of every (remaining) tuple's sample
    set and serves each tuple's block as a slice — the stacked evaluation
    computes exactly the same elementwise kernel values, so a slice is
    bit-identical to the per-tuple evaluation it replaces.

    A slice is only served while the model fingerprint (kernel
    hyperparameters + training-set size) still matches the one the stack
    was armed under; any mid-chunk model movement falls back to the base
    class's lazy per-tuple path.  Re-arming is throttled: at a new-tuple
    boundary the stack is rebuilt only when the model held still across
    the entire previous tuple (refinement has stopped firing), at most
    :data:`MAX_ARMS` times per chunk, and only with at least two tuples
    left to amortise the stacked evaluation over.
    """

    #: Hard cap on stacked kernel evaluations per chunk (arming is O(B·m·n)).
    MAX_ARMS = 4

    def __init__(
        self,
        gp: GaussianProcess,
        sample_sets: Sequence[np.ndarray],
        sample_boxes: Optional[Sequence[BoundingBox]] = None,
    ):
        super().__init__(gp, sample_sets, sample_boxes)
        self._stack: Optional[np.ndarray] = None
        self._stack_fp: Optional[tuple[bytes, int]] = None
        self._stack_start = 0
        self._stack_offsets: Optional[np.ndarray] = None
        self._arms = 0
        self._boundary_index: Optional[int] = None
        self._boundary_fp: Optional[tuple[bytes, int]] = None
        self._arm(gp, 0)

    def _fingerprint(self) -> tuple[bytes, int]:
        return (self._theta, self._n_train)

    def _arm(self, gp: GaussianProcess, start: int) -> None:
        """Evaluate the stacked row block for tuples ``start..end`` (throttled).

        The stack is assembled from *grouped* kernel evaluations — a few
        tuples' sample sets concatenated per call — rather than one call per
        tuple or one chunk-tall call.  The values are identical all three
        ways (the kernel is elementwise over GEMM row blocks, one of the
        identities ``stacking_supported`` probes), but grouping amortises
        the per-call dispatch of the kernel's seven array passes while the
        grouped distance/exponential temporaries stay cache-resident —
        both endpoints measure slower.
        """
        if len(self.sample_sets) - start < 2 or self._arms >= self.MAX_ARMS:
            return
        self._arms += 1
        remaining = self.sample_sets[start:]
        parts = []
        group: list[np.ndarray] = []
        rows = 0
        for s in remaining:
            if group and rows + s.shape[0] > _ARM_GROUP_ROWS:
                parts.append(group)
                group, rows = [], 0
            group.append(s)
            rows += s.shape[0]
        if group:
            parts.append(group)
        self._stack = np.vstack(
            [
                gp.kernel(part[0] if len(part) == 1 else np.concatenate(part, axis=0), gp.X_train)
                for part in parts
            ]
        )
        counts = [s.shape[0] for s in remaining]
        self._stack_offsets = np.concatenate([[0], np.cumsum(counts)])
        self._stack_start = start
        self._stack_fp = self._fingerprint()

    def ensure_armed(self, gp: GaussianProcess, start: int) -> bool:
        """Arm (or re-arm) so tuples ``start..end`` are servable as slices.

        Unlike the boundary heuristic in :meth:`rows`, this arms eagerly —
        it is the entry point for a batched re-pass after a mid-chunk model
        move, where the caller has already decided to redo the remaining
        tuples as one column operation.  Still throttled by
        :data:`MAX_ARMS`; returns whether slices are now servable.
        """
        self.sync(gp)
        fp = self._fingerprint()
        if self._stack is None or self._stack_fp != fp or start < self._stack_start:
            self._arm(gp, start)
        return (
            self._stack is not None
            and self._stack_fp == fp
            and start >= self._stack_start
        )

    def stack_ready(self, gp: GaussianProcess) -> bool:
        """Whether every tuple's row block is currently servable as a slice."""
        self.sync(gp)
        return (
            self._stack is not None
            and self._stack_fp == self._fingerprint()
            and self._stack_start == 0
        )

    def rows(self, gp: GaussianProcess, i: int) -> np.ndarray:
        """Tuple ``i``'s cross-covariance block, sliced from the armed stack.

        Falls back to the lazy base-class evaluation whenever the stack is
        stale; the served slice also seeds the base class's one-slot memo
        so mid-tuple model growth appends columns to the slice exactly as
        it would to a fresh block.
        """
        self.sync(gp)
        fp = self._fingerprint()
        if i != self._boundary_index:
            stale = (
                self._stack is None or self._stack_fp != fp or i < self._stack_start
            )
            if stale and fp == self._boundary_fp:
                self._arm(gp, i)
            self._boundary_index = i
            self._boundary_fp = fp
        if (
            self._stack is not None
            and self._stack_fp == fp
            and i >= self._stack_start
        ):
            lo = int(self._stack_offsets[i - self._stack_start])
            hi = int(self._stack_offsets[i - self._stack_start + 1])
            block = self._stack[lo:hi]
            self._row_block = block
            self._row_index = i
            self._row_n_train = self._n_train
            return block
        return super().rows(gp, i)


def _noise_augmented_inverse(K_local: np.ndarray, noise: float) -> np.ndarray:
    """Inverse of a local covariance block with the model's noise on its diagonal."""
    L, _ = jittered_cholesky(K_local + noise * np.eye(K_local.shape[0]))
    return inverse_from_cholesky(L)


def _subset_inference(
    gp: GaussianProcess,
    alpha: np.ndarray,
    samples: np.ndarray,
    K_rows: np.ndarray,
    selection: tuple[np.ndarray, float, float],
    K_local_inv: np.ndarray,
) -> LocalInferenceResult:
    """Predictive mean and variance on a selected subset (Algorithm 4).

    The one body behind :meth:`LocalInferenceEngine.predict` and
    :meth:`~LocalInferenceEngine.predict_cached`; they differ only in where
    ``K_rows`` and ``K_local_inv`` come from.
    """
    selected, gamma, radius = selection
    K_star = K_rows if selected.size == K_rows.shape[1] else K_rows[:, selected]
    # Mean: global weights restricted to the local subset (the paper's f̂_L
    # approximation, whose error is bounded by γ), plus the GP's constant
    # mean offset.  Variance: exact GP variance of the local model.
    means = K_star @ alpha[selected] + gp.mean_offset
    tmp = K_star @ K_local_inv
    variances = np.maximum(gp.kernel.diag(samples) - np.sum(tmp * K_star, axis=1), 0.0)
    return LocalInferenceResult(
        means=means,
        stds=np.sqrt(variances),
        selected_indices=selected,
        gamma=gamma,
        radius=radius,
    )


def _grouped_inference(
    gp: GaussianProcess,
    alpha: np.ndarray,
    sample_sets: Sequence[np.ndarray],
    blocks: Sequence[np.ndarray],
    selections: Sequence[tuple[np.ndarray, float, float]],
    K_inv: np.ndarray,
) -> list[LocalInferenceResult]:
    """:func:`_subset_inference` for tuples that selected one common subset.

    The variance row-sums of all the tuples' row ``blocks`` come from one
    tall GEMM per row batch, bit-identical per tuple; the means are
    matrix-vector products and are taken per row block (see
    :meth:`LocalInferenceEngine.predict_cached_block`).
    """
    selected = selections[0][0]
    narrow = selected.size != blocks[0].shape[1]
    alpha_selected = alpha[selected]
    results = []
    for batch in _row_batches([b.shape[0] for b in blocks], selected.size):
        tall = _stacked_rows([blocks[k] for k in batch])
        if narrow:
            # One column gather on the stacked view instead of one per
            # block: the gathered rows are the per-block ``block[:, selected]``.
            tall = tall[:, selected]
        rowsum_tall = np.sum((tall @ K_inv) * tall, axis=1)
        # The prior variance is pointwise (``diag`` maps each sample row
        # independently), so one tall subtract / clamp / sqrt is
        # elementwise-identical to the per-tuple slices it replaces.
        sample_tall = _stacked_rows([sample_sets[k] for k in batch])
        stds_tall = np.sqrt(np.maximum(gp.kernel.diag(sample_tall) - rowsum_tall, 0.0))
        offset = 0
        for k in batch:
            rows = slice(offset, offset + blocks[k].shape[0])
            means = tall[rows] @ alpha_selected + gp.mean_offset
            results.append(LocalInferenceResult(means, stds_tall[rows], *selections[k]))
            offset = rows.stop
    return results


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


def global_inference_cached(
    gp: GaussianProcess, cache: BatchKernelCache, i: int
) -> LocalInferenceResult:
    """Cached counterpart of :func:`global_inference` for tuple ``i``.

    Replicates :meth:`GaussianProcess.predict` (including its use of the
    model's own incrementally maintained ``K^{-1}``) with the kernel
    cross-covariance taken from the shared cache.
    """
    everything = (np.arange(gp.n_training), 0.0, float("inf"))
    return _subset_inference(
        gp, gp.alpha, cache.sample_sets[i], cache.rows(gp, i), everything, gp.K_inv
    )


def global_inference_cached_block(
    gp: GaussianProcess, cache: BatchKernelCache, indices: Sequence[int]
) -> list[LocalInferenceResult]:
    """Column-wise :func:`global_inference_cached` via one tall variance GEMM.

    Bit-identical per tuple (BLAS computes each row block of a stacked
    matrix-matrix product exactly as it computes the block alone; callers
    gate on :func:`repro.distributions.columns.stacking_supported`).
    """
    indices = list(indices)
    if not indices:
        return []
    everything = (np.arange(gp.n_training), 0.0, float("inf"))
    return _grouped_inference(
        gp,
        gp.alpha,
        [cache.sample_sets[i] for i in indices],
        [cache.rows(gp, i) for i in indices],
        [everything] * len(indices),
        gp.K_inv,
    )


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
