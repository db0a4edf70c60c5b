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

from repro.distributions.columns import stacking_supported
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
        return _subset_inference(
            gp, alpha, samples, K_rows, selection, gp.local_inverse(selection[0])
        )

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
        when every box sits within the first search radius — share the
        passes around their variance projections and one local inverse
        (:func:`_grouped_inference`).
        """
        indices = list(indices)
        alpha = gp.alpha
        row_blocks = [cache.rows(gp, i) for i in indices]
        selections = self._select_from_distances_block(gp, alpha, cache, indices, row_blocks)
        groups: dict[bytes, list[int]] = {}
        for pos in range(len(indices)):
            groups.setdefault(selections[pos][0].tobytes(), []).append(pos)
        results: list[Optional[LocalInferenceResult]] = [None] * len(indices)
        for positions in groups.values():
            grouped = _grouped_inference(
                gp,
                alpha,
                cache,
                [indices[pos] for pos in positions],
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

    def _select_from_distances_block(
        self,
        gp: GaussianProcess,
        alpha: np.ndarray,
        cache: "BatchKernelCache",
        indices: Sequence[int],
        row_blocks: Sequence[np.ndarray],
    ) -> list[tuple[np.ndarray, float, float]]:
        """Column-wise :meth:`_select_from_distances` over tuples of a chunk.

        Replays the same radius-expansion schedule for every tuple at once:
        one broadcast threshold test per level replaces the per-tuple
        ``flatnonzero`` scans, and tuples whose excluded sets coincide at a
        level — the common case under a warm model — share one stacked
        exact-γ matvec whose per-item products are the per-tuple ones (an
        identity :meth:`BatchKernelCache.arm` gates its window on).
        Interval-bound configurations keep the scalar loop, which is the
        only path exercising the box-geometry bound.
        """
        distances = cache.box_distances[:, indices]
        n, count = distances.shape
        if self.bound_method != "exact":
            return [
                self._select_from_distances(
                    gp, alpha, distances[:, pos], row_blocks[pos], cache.boxes[indices[pos]]
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
                # consecutive slices of the armed window.
                excluded = np.where(mask[:, cols].T, 0.0, alpha[None, :])
                gammas: list[float] = []
                if uniform:
                    rows = row_blocks[positions[0]].shape[0]
                    for batch in _row_batches([rows] * len(positions), n):
                        tall = cache.stacked(
                            [indices[positions[k]] for k in batch],
                            [row_blocks[positions[k]] for k in batch],
                        )
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


#: Cap on stacked-operand elements (rows × columns) of the grouped passes:
#: they run in row batches under this cap, so the operands stay
#: cache-resident instead of streaming multi-megabyte temporaries through
#: memory — which measures *slower* than a per-tuple loop.
_MAX_STACK_ELEMENTS = 262_144

#: Cap on the sample rows of one armed window (:meth:`BatchKernelCache.arm`).
#: Stacking amortises per-call dispatch, which only dominates on small
#: arrays, while every transient of the block pipeline (its bound sweep,
#: ``error_bounds._sweep_block``, allocates some 40 arrays of rows x 3m, a
#: quarter of them boolean) scales with the stacked rows.
#: Measured (F1, batch 32, warm 74-point model, BLAS pinned), scalar first
#: pass over the window under this cap / over the whole 32-tuple chunk
#: stacked: 1.15 / 1.15 at m = 64 samples per tuple, 1.14 / 1.12 at 199,
#: 1.03 / 0.89 at 446, 1.00 / 0.87 at 1 239.  And the allocator keeps what
#: the taller temporaries touched: perfbench ``cold_slow_udf`` peaks at
#: 130-133 MB RSS under this cap (as without stacking) and at 152-154 MB
#: under a 4 096-row one.  Rows, not rows x training points: that product
#: lets a cold 10-point model stack the whole chunk.
_WINDOW_ROWS = 1536


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

    * per-tuple cross-covariance row blocks, served by :meth:`rows` — one
      kernel evaluation that the radius-expansion exact-γ checks, the
      predictive mean and the predictive variance all reuse
      (:meth:`LocalInferenceEngine.predict` evaluates the same block once
      per call); built lazily per tuple, or for an *armed window* of
      consecutive tuples at once (:meth:`arm`) and served as slices,
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
            self._stack = None
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
        self._stack = None

    def arm(self, gp: GaussianProcess, start: int, quiet: int) -> range:
        """Arm the window of consecutive tuples beginning at ``start``.

        The window's cross-covariance blocks are evaluated now, into one
        stack that :meth:`rows` serves slices of and :meth:`stacked` serves
        runs of without copying, until the model moves (:meth:`sync` drops
        the stack).  Each block is its own kernel evaluation: the kernel's
        cross term is a BLAS product, and which BLAS kernel runs — hence the
        last bit — depends on the operand's row count.  The window's length
        is computed, never configured: at most ``1 + quiet`` tuples
        (``quiet``: tuples committed since the model last moved, so a
        refining stream never stacks rows a commit is about to invalidate)
        under :data:`_WINDOW_ROWS` stacked rows, and one tuple on a platform
        that fails the identities the block pipeline rests on.  A one-tuple
        window stacks nothing: :meth:`rows` evaluates lazily.
        """
        self.sync(gp)
        limit = min(len(self.sample_sets), start + 1 + (quiet if stacking_supported() else 0))
        stop, rows = start + 1, self.sample_sets[start].shape[0]
        while stop < limit and rows + self.sample_sets[stop].shape[0] <= _WINDOW_ROWS:
            rows += self.sample_sets[stop].shape[0]
            stop += 1
        window = range(start, stop)
        self._stack = None
        if len(window) > 1:
            sets = self.sample_sets[start:stop]
            self._stack = np.concatenate([gp.kernel(s, gp.X_train) for s in sets], axis=0)
            self._stack_window = window
            self._stack_offsets = np.cumsum([0] + [s.shape[0] for s in sets])
        return window

    def stacked(self, indices: Sequence[int], blocks: Sequence[np.ndarray]) -> np.ndarray:
        """The tuples' row ``blocks`` (as :meth:`rows` served them), stacked.

        Consecutive tuples of the armed window are one slice of its stack —
        holding exactly the values ``vstack`` would copy; anything else is
        copied.
        """
        window = self._stack_window
        run = range(indices[0], indices[0] + len(indices))
        consecutive = list(indices) == list(run) and run[0] in window and run[-1] in window
        if self._stack is None or not consecutive:
            return np.vstack(blocks)
        offsets = self._stack_offsets
        return self._stack[offsets[run.start - window.start] : offsets[run.stop - window.start]]

    def rows(self, gp: GaussianProcess, i: int) -> np.ndarray:
        """Cross-covariance between tuple ``i``'s samples and the training set.

        A slice of the armed window when tuple ``i`` is in it, else built on
        first use; either way kept in a one-slot memo that follows model
        growth by appending columns for new training points, so one tuple's
        repeated inferences (initial bound check plus every refinement
        iteration) share a single base kernel evaluation.
        """
        self.sync(gp)
        if self._row_index == i and self._row_n_train == self._n_train:
            return self._row_block
        if self._stack is not None and i in self._stack_window:
            k = i - self._stack_window.start
            self._row_block = self._stack[self._stack_offsets[k] : self._stack_offsets[k + 1]]
            self._row_index = i
        elif self._row_index == i and 0 < self._row_n_train < self._n_train:
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
        self._stack: Optional[np.ndarray] = None
        self._stack_window = range(0)


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
    projected = K_star @ K_local_inv
    np.multiply(projected, K_star, out=projected)
    variances = np.maximum(gp.kernel.diag(samples) - np.sum(projected, axis=1), 0.0)
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
    cache: BatchKernelCache,
    indices: Sequence[int],
    blocks: Sequence[np.ndarray],
    selections: Sequence[tuple[np.ndarray, float, float]],
    K_inv: np.ndarray,
) -> list[LocalInferenceResult]:
    """:func:`_subset_inference` for tuples that selected one common subset.

    Every BLAS product — the variance projection, the means — is taken per
    row block, with the operand shapes of the scalar call: which kernel a
    BLAS picks, and with it the rounding, depends on the row count
    (OpenBLAS sends a small block down its small-matrix path and a tall
    stack of the same blocks down the blocked one).  The passes around them
    run once over the stacked rows.
    """
    selected = selections[0][0]
    narrow = selected.size != blocks[0].shape[1]
    alpha_selected = alpha[selected]
    results = []
    for batch in _row_batches([b.shape[0] for b in blocks], selected.size):
        tall = cache.stacked([indices[k] for k in batch], [blocks[k] for k in batch])
        if narrow:
            # One column gather on the stacked view instead of one per
            # block: the gathered rows are the per-block ``block[:, selected]``.
            tall = tall[:, selected]
        bounds = np.cumsum([0] + [blocks[k].shape[0] for k in batch])
        spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        projected = np.empty(tall.shape)  # C order, as ``@`` lays the scalar product out
        for rows in spans:
            np.matmul(tall[rows], K_inv, out=projected[rows])
        # Everything else is pointwise or reduces one row at a time (the
        # prior variance ``diag`` maps each sample row independently), so one
        # tall pass equals the per-tuple slices it replaces.
        sample_tall = np.concatenate([cache.sample_sets[indices[k]] for k in batch], axis=0)
        prior = gp.kernel.diag(sample_tall)
        stds_tall = np.sqrt(np.maximum(prior - np.sum(projected * tall, axis=1), 0.0))
        for k, rows in zip(batch, spans):
            means = tall[rows] @ alpha_selected + gp.mean_offset
            results.append(LocalInferenceResult(means, stds_tall[rows], *selections[k]))
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

    Bit-identical per tuple (see :func:`_grouped_inference`).
    """
    indices = list(indices)
    if not indices:
        return []
    everything = (np.arange(gp.n_training), 0.0, float("inf"))
    return _grouped_inference(
        gp,
        gp.alpha,
        cache,
        indices,
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
