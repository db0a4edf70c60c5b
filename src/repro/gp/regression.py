"""Exact Gaussian-process regression with incremental updates.

Implements Section 3.3 (inference for new input points), the marginal
likelihood and its derivatives used in Section 3.4 / 5.3, and the
incremental inverse-covariance update of Section 5.2 that lets OLGAPRO add
training points online in ``O(n^2)``.

The model follows the paper's choices: zero mean function and a stationary
kernel; a small observation-noise variance is kept on the diagonal for
numerical stability (UDFs are deterministic, so this acts as jitter).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.config import DEFAULT_JITTER
from repro.exceptions import GPError, NotTrainedError
from repro.gp.kernels import Kernel, SquaredExponential, pairwise_dists
from repro.gp.linalg import (
    block_inverse_update,
    block_inverse_update_multi,
    inverse_from_cholesky,
    jittered_cholesky,
    log_det_from_cholesky,
    symmetrize,
)

_LOG_2PI = float(np.log(2.0 * np.pi))

#: Cap on the per-version local-inverse memo
#: (:meth:`GaussianProcess.local_inverse`), in summed matrix elements (8 MB of
#: float64); oldest entries are evicted, a larger inverse is never filed.
#: Elements, not entries, because entry counts do not bound memory.  Measured
#: (per-tuple ``process``, 200 samples, 500 tuples after 60 of warm-up):
#: quiet F1 / F3 streams look up one subset per model version — the whole
#: 57..128-point training set, 26..131 KB, up to 239 lookups per version —
#: while F4 at its 2 000-point ceiling looks up a different 278..1 988-point
#: subset on each of the 36 calls of its longest quiet run: no hits, and up
#: to 31.6 MB per inverse, which this cap declines to hold.
_LOCAL_INVERSE_CAP = 1 << 20


@dataclass(frozen=True)
class GPStateSnapshot:
    """Frozen copy of a GP's trained state (§5.2 speculative tuning support).

    Captures everything :meth:`GaussianProcess.restore` needs to roll the
    model back after a speculative multi-point addition overshoots: the
    training data, the incrementally maintained inverse factorization, the
    weight vector, and the kernel hyperparameters.  The arrays are *shared*
    with the model rather than copied — :class:`GaussianProcess` only ever
    rebinds its arrays (vstack / append / fresh inverse), never mutates them
    in place, so a snapshot stays valid however the live model evolves, and
    restoring rebinds the exact original buffers (bitwise-identical
    predictions, no copy cost).
    """

    X: Optional[np.ndarray]
    y: Optional[np.ndarray]
    offset: float
    K_inv: Optional[np.ndarray]
    alpha: Optional[np.ndarray]
    log_det: Optional[float]
    adds_since_refresh: int
    #: A clone of the kernel, preserving hyperparameters in natural space —
    #: round-tripping through the log-space ``theta`` vector would perturb
    #: them by an ulp and break bitwise restore.
    kernel: Kernel
    #: The model's :attr:`GaussianProcess.version` at capture time.  Callers
    #: that absorb observations selected *against* this snapshot can pass it
    #: as a fence: if the model mutated in between, the absorb is rejected
    #: instead of silently applying against a different base state.
    version: int = 0

    @property
    def n_training(self) -> int:
        """Number of training points captured in this snapshot."""
        return 0 if self.X is None else int(self.X.shape[0])


class GaussianProcess:
    """Zero-mean GP regressor over a black-box scalar function.

    Parameters
    ----------
    kernel:
        Covariance function; defaults to the paper's squared-exponential.
    noise_variance:
        Diagonal noise / jitter added to the training covariance matrix.
    refresh_every:
        After this many incremental point additions the inverse covariance
        matrix is recomputed from a fresh Cholesky factorisation to stop
        floating-point drift from accumulating.
    center_targets:
        When true (default) the GP is fitted to the training targets minus
        their mean and the mean is added back at prediction time.  This is
        equivalent to using a constant mean function and removes the
        degenerate maximum-likelihood modes a strict zero-mean model exhibits
        on targets with a large offset.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        noise_variance: float = DEFAULT_JITTER,
        refresh_every: int = 64,
        center_targets: bool = True,
    ):
        if noise_variance < 0:
            raise GPError("noise_variance must be non-negative")
        if refresh_every <= 0:
            raise GPError("refresh_every must be positive")
        self.kernel = kernel if kernel is not None else SquaredExponential()
        self.noise_variance = float(noise_variance)
        self.refresh_every = int(refresh_every)
        self.center_targets = bool(center_targets)

        self._X: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._offset = 0.0
        self._K_inv: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._log_det: Optional[float] = None
        self._adds_since_refresh = 0
        #: Monotone state-version counter, bumped by every mutation (fit,
        #: point additions, hyperparameter changes, restore).  Snapshots
        #: record it so deferred absorbs can *fence* on "unchanged since the
        #: snapshot" — see :meth:`snapshot` and
        #: :meth:`repro.core.emulator.GPEmulator.absorb_observations`.
        self._version = 0
        #: Serialises mutations: the async refinement pipeline keeps all GP
        #: updates on the coordinating thread by design, but the lock makes
        #: an accidental concurrent absorb corrupt nothing.
        self._update_lock = threading.RLock()
        #: Counts of factorization-grade operations performed over the model's
        #: lifetime: full Cholesky recomputes, O(n^2) rank-1 inverse updates,
        #: and O(n^2 k) blocked inverse updates.  The speculative tuning tests
        #: and benchmarks read these to quantify refinement-loop savings.
        self.op_counts: dict[str, int] = {"cholesky": 0, "rank1_update": 0, "block_update": 0}
        #: ``(version, {subset key: inverse})`` — see :meth:`local_inverse`.
        self._local_inverses: tuple[int, dict[bytes, np.ndarray]] = (0, {})
        #: ``(version, width)`` — see :meth:`target_range`.
        self._target_range: tuple[int, float] = (-1, 0.0)

    # -- pickling ----------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support: the update lock is process-local and not picklable.

        The local-inverse memo is derived state and stays behind as well.
        """
        state = dict(self.__dict__)
        del state["_update_lock"]
        state["_local_inverses"] = (self._version, {})
        return state

    def __setstate__(self, state: dict) -> None:
        """Recreate the process-local update lock after unpickling."""
        self.__dict__.update(state)
        self._update_lock = threading.RLock()

    # -- training-set accessors -------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone counter identifying the current model state.

        Every mutation — :meth:`fit`, :meth:`add_point`, :meth:`add_points`,
        :meth:`set_hyperparameters`, :meth:`restore` — increments it, so two
        equal readings bracket a window in which the model was untouched.
        """
        return self._version

    @property
    def n_training(self) -> int:
        """Number of training points currently in the model."""
        return 0 if self._X is None else int(self._X.shape[0])

    @property
    def X_train(self) -> np.ndarray:
        """Training inputs with shape ``(n, d)``."""
        self._require_trained()
        return self._X.copy()

    @property
    def y_train(self) -> np.ndarray:
        """Training targets with shape ``(n,)``."""
        self._require_trained()
        return self._y.copy()

    def target_range(self) -> float:
        """Width ``max(y) - min(y)`` of the training targets, reduced once per :attr:`version`."""
        self._require_trained()
        version, width = self._target_range
        if version != self._version:
            version = self._version
            width = float(np.max(self._y) - np.min(self._y))
            self._target_range = (version, width)
        return width

    @property
    def alpha(self) -> np.ndarray:
        """The weight vector ``K^{-1} (y - offset)`` used for O(n) mean prediction (§5.1)."""
        self._require_trained()
        return self._alpha.copy()

    @property
    def mean_offset(self) -> float:
        """Constant added back to every mean prediction (0 when not centering)."""
        return self._offset

    @property
    def K_inv(self) -> np.ndarray:
        """Inverse of the (noise-augmented) training covariance matrix."""
        self._require_trained()
        return self._K_inv.copy()

    @property
    def dimension(self) -> int:
        """Input dimensionality of the modelled function."""
        self._require_trained()
        return int(self._X.shape[1])

    # -- fitting -----------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """(Re)build the model from scratch on the given training data.

        Cost is ``O(n^3)`` for the Cholesky factorisation, matching the
        training-complexity discussion in Section 3.3.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise GPError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} values"
            )
        if X.shape[0] == 0:
            raise GPError("cannot fit a GP on zero training points")
        with self._update_lock:
            X, y = X.copy(), y.copy()
            self._commit(X, y, *self._fresh_state(X, y), adds_since_refresh=0)
        return self

    def add_point(self, x: np.ndarray, y: float) -> None:
        """Add one training point, updating ``K^{-1}`` incrementally (§5.2)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._X is None:
            self.fit(x.reshape(1, -1), np.array([y]))
            return
        if x.shape != (self._X.shape[1],):
            raise GPError(
                f"point has shape {x.shape}, expected ({self._X.shape[1]},)"
            )
        with self._update_lock:
            k_new = self.kernel(self._X, x.reshape(1, -1)).ravel()
            k_self = float(self.kernel.diag(x.reshape(1, -1))[0]) + self.effective_noise()
            self._grow(
                x, y, lambda: block_inverse_update(self._K_inv, k_new, k_self), "rank1_update"
            )

    def add_points(self, X_new: np.ndarray, y_new: np.ndarray) -> None:
        """Add ``k`` training points in one blocked ``O(n^2 k)`` update.

        Generalises :meth:`add_point`: the inverse covariance matrix absorbs
        the whole block at once via the Schur-complement identity instead of
        ``k`` successive rank-1 updates.  A rank-deficient block (duplicate
        or linearly dependent points) falls back to a full refit, which
        applies escalating jitter.
        """
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        if X_new.shape[0] != y_new.shape[0]:
            raise GPError(
                f"X_new has {X_new.shape[0]} rows but y_new has {y_new.shape[0]} values"
            )
        if X_new.shape[0] == 0:
            return
        if self._X is None:
            self.fit(X_new, y_new)
            return
        if X_new.shape[1] != self._X.shape[1]:
            raise GPError(
                f"points have {X_new.shape[1]} columns, expected {self._X.shape[1]}"
            )
        if X_new.shape[0] == 1:
            self.add_point(X_new[0], float(y_new[0]))
            return
        with self._update_lock:
            K_cross = self.kernel(self._X, X_new)
            K_block = self.kernel(X_new, X_new) + self.effective_noise() * np.eye(X_new.shape[0])
            self._grow(
                X_new,
                y_new,
                lambda: block_inverse_update_multi(self._K_inv, K_cross, K_block),
                "block_update",
            )

    def _grow(
        self,
        X_new: np.ndarray,
        y_new: np.ndarray | float,
        update: Callable[[], np.ndarray],
        counter: str,
    ) -> None:
        """Commit the training set grown by ``X_new`` / ``y_new`` (§5.2).

        ``update()`` returns the grown ``K^{-1}``.  A degenerate update
        (duplicate or linearly dependent points) raises :class:`GPError` and
        falls back to a full refit, which applies escalating jitter; every
        ``refresh_every`` added points also refit from scratch.  The grown
        state is built in locals and committed with the version bump at the
        end, so a refit that raises leaves the model, its version included,
        as it was.
        """
        X = np.vstack([self._X, X_new])
        y = np.append(self._y, y_new)
        try:
            new_inv = update()
        except GPError:
            new_inv = None
        else:
            self.op_counts[counter] += 1
        adds = self._adds_since_refresh + (y.shape[0] - self._y.shape[0])
        if new_inv is None or adds >= self.refresh_every:
            self._commit(X, y, *self._fresh_state(X, y), adds_since_refresh=0)
            return
        K_inv = symmetrize(new_inv)
        # The offset is kept for incremental updates and refreshed on the
        # next full refit; log|K| is recomputed lazily when the likelihood
        # is needed.
        self._commit(X, y, K_inv, K_inv @ (y - self._offset), None, self._offset, adds)

    def set_hyperparameters(self, theta: np.ndarray) -> None:
        """Set kernel hyperparameters (log space) and refit the matrices.

        The new state is computed on a clone of the kernel and committed
        only once its factorisation succeeds: a failure leaves the
        hyperparameters, ``K^{-1}``, α and :attr:`version` as they were.
        """
        with self._update_lock:
            kernel = self.kernel.clone()
            kernel.theta = np.asarray(theta, dtype=float)
            if self._X is None:
                self.kernel.__dict__.update(kernel.__dict__)
                self._version += 1
                return
            state = self._fresh_state(self._X, self._y, kernel)
            # In place: components hold references to the live kernel.
            self.kernel.__dict__.update(kernel.__dict__)
            self._commit(self._X, self._y, *state, adds_since_refresh=0)

    # -- state snapshot / rollback -------------------------------------------------
    @property
    def factorization_count(self) -> int:
        """Total factorization-grade operations performed so far.

        Sums full Cholesky recomputes, rank-1 inverse updates and blocked
        inverse updates — the quantity the speculative multi-point tuning
        strategy reduces by absorbing ``k`` points per operation.
        """
        return int(sum(self.op_counts.values()))

    def snapshot(self) -> GPStateSnapshot:
        """Capture the current trained state for a later :meth:`restore`.

        O(1): the snapshot shares the model's (never-mutated-in-place)
        arrays instead of copying them, and spends no factorization work —
        the point of the speculative tuning loop is to save factorizations,
        so rolling back must not spend one.
        """
        return GPStateSnapshot(
            X=self._X,
            y=self._y,
            offset=self._offset,
            K_inv=self._K_inv,
            alpha=self._alpha,
            log_det=self._log_det,
            adds_since_refresh=self._adds_since_refresh,
            kernel=self.kernel.clone(),
            version=self._version,
        )

    def restore(self, state: GPStateSnapshot) -> None:
        """Roll the model back to a previously captured snapshot.

        Restores the training data, factorization, weight vector and kernel
        hyperparameters without recomputing anything.  Operation counters are
        deliberately *not* rolled back: they account for work performed, and
        a rolled-back speculative step still performed its update.
        """
        # Mutate the live kernel in place (components hold references to it)
        # with natural-space values from the snapshot's clone, and rebind the
        # snapshot's shared buffers — the restored state is bitwise the state
        # that was captured.
        with self._update_lock:
            self.kernel.__dict__.update(state.kernel.clone().__dict__)
            # The version moves *forward*: a rollback is itself a mutation, so
            # fences captured before the rolled-back step must not silently
            # match the post-rollback state.
            self._commit(
                state.X, state.y, state.K_inv, state.alpha, state.log_det, state.offset,
                state.adds_since_refresh,
            )

    # -- prediction ----------------------------------------------------------------
    def predict(
        self, X_test: np.ndarray, return_std: bool = True
    ) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
        """Posterior mean (and standard deviation) at the test inputs.

        Implements Eq. (2): ``m = K(X, X*) K(X*, X*)^{-1} f*`` and
        ``Sigma = K(X, X) - K(X, X*) K(X*, X*)^{-1} K(X*, X)`` (diagonal only).
        """
        self._require_trained()
        X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
        K_star = self.kernel(X_test, self._X)
        mean = K_star @ self._alpha + self._offset
        if not return_std:
            return mean
        # Only the marginal variances are needed by the framework.
        tmp = K_star @ self._K_inv
        var = self.kernel.diag(X_test) - np.sum(tmp * K_star, axis=1)
        var = np.maximum(var, 0.0)
        return mean, np.sqrt(var)

    def local_inverse(self, selected: np.ndarray) -> np.ndarray:
        """Inverse of the noise-augmented covariance of the training rows ``selected``.

        The ``O(l^3)`` step of local inference (§5.1).  It depends only on
        the model state and the subset, and a warm model serves long runs
        of tuples from one state, so the inverses are memoised per
        :attr:`version`: any mutation drops them all, and an inverse is
        filed only if the version read the same before and after it was
        built.  The returned array is shared between callers and read-only.
        """
        self._require_trained()
        version = self._version
        if self._local_inverses[0] != version:
            self._local_inverses = (version, {})
        memo = self._local_inverses[1]
        key = selected.tobytes()
        inverse = memo.get(key)
        if inverse is None:
            X_local = self._X[selected]
            K_local = self.kernel(X_local, X_local)
            L, _ = jittered_cholesky(K_local + self.effective_noise() * np.eye(selected.size))
            inverse = inverse_from_cholesky(L)
            inverse.setflags(write=False)
            if self._version == version and inverse.size <= _LOCAL_INVERSE_CAP:
                held = sum(entry.size for entry in memo.values())
                while held + inverse.size > _LOCAL_INVERSE_CAP:
                    held -= memo.pop(next(iter(memo))).size
                memo[key] = inverse
        return inverse

    def predict_mean(self, X_test: np.ndarray) -> np.ndarray:
        """Posterior mean only — ``O(n)`` per test point via the cached alpha."""
        self._require_trained()
        X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
        return self.kernel(X_test, self._X) @ self._alpha + self._offset

    def sample_posterior(
        self, X_test: np.ndarray, n_samples: int = 1, random_state=None
    ) -> np.ndarray:
        """Draw sample functions from the posterior at the test inputs.

        Returns an array with shape ``(n_samples, len(X_test))``.  Used by
        tests to validate that the simultaneous confidence band actually
        contains posterior sample paths with the advertised probability.
        """
        from repro.rng import as_generator

        self._require_trained()
        X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
        K_star = self.kernel(X_test, self._X)
        mean = K_star @ self._alpha + self._offset
        cov = self.kernel(X_test, X_test) - K_star @ self._K_inv @ K_star.T
        cov = symmetrize(cov)
        L, _ = jittered_cholesky(cov + 1e-12 * np.eye(cov.shape[0]))
        rng = as_generator(random_state)
        z = rng.standard_normal(size=(n_samples, X_test.shape[0]))
        return mean + z @ L.T

    # -- marginal likelihood and derivatives ------------------------------------------
    def log_marginal_likelihood(self) -> float:
        """``log p(y | X, theta)`` for the current hyperparameters (§3.4)."""
        self._require_trained()
        if self._log_det is None:
            self._refresh_log_det()
        return _log_likelihood(self._y - self._offset, self._alpha, self._log_det)

    def log_marginal_likelihood_gradient(self) -> np.ndarray:
        """Gradient of the log marginal likelihood w.r.t. ``kernel.theta``."""
        self._require_trained()
        return _likelihood_gradient(self._alpha, self._K_inv, self.kernel.gradients(self._X))

    def log_marginal_likelihood_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian diagonal of the log marginal likelihood.

        What the Newton-step retraining heuristic (Section 5.3) reads, from
        one distance matrix and one correlation evaluation.
        """
        self._require_trained()
        r = pairwise_dists(self._X, self._X)
        K = self.kernel.from_distances(r)
        grads = self.kernel.gradients_from_distances(r, K)
        seconds = self.kernel.second_derivatives_from_distances(r, K)
        return (
            _likelihood_gradient(self._alpha, self._K_inv, grads),
            _likelihood_hessian_diag(self._K_inv, self._y - self._offset, grads, seconds),
        )

    def likelihood_objective(
        self, distances: np.ndarray
    ) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
        """``theta -> (-log L, -gradient)`` on the training set, for an optimiser.

        ``distances`` are the training inputs' Euclidean distances,
        ``pairwise_dists(X, X)``: a fit computes them once, since
        ``theta`` does not move them.  Each evaluation builds ``K`` once on a
        clone of the kernel and factorises it through :meth:`_factorise`,
        giving bitwise what :meth:`set_hyperparameters` followed by
        :meth:`log_marginal_likelihood` and
        :meth:`log_marginal_likelihood_gradient` give, without touching the
        model (only ``op_counts`` counts the factorisation).
        """
        self._require_trained()
        centred = self._y - self._centre(self._y)

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            kernel = self.kernel.clone()
            kernel.theta = theta
            K = kernel.from_distances(distances)
            K_inv, alpha, log_det = self._factorise(K, kernel, centred)
            gradient = _likelihood_gradient(
                alpha, K_inv, kernel.gradients_from_distances(distances, K)
            )
            return -_log_likelihood(centred, alpha, log_det), -gradient

        return objective

    # -- internals -----------------------------------------------------------------
    def effective_noise(self) -> float:
        """Diagonal nugget actually added to the training covariance matrix.

        The configured noise is treated as a floor; an additional relative
        jitter proportional to the signal variance keeps the condition number
        of the kernel matrix bounded (and the weight vector α well behaved)
        even when maximum-likelihood training drives the signal variance to
        large values or training points cluster tightly.
        """
        return self._noise_under(self.kernel)

    def _noise_under(self, kernel: Kernel) -> float:
        return max(self.noise_variance, 1e-7 * kernel.signal_std**2)

    def _centre(self, y: np.ndarray) -> float:
        return float(np.mean(y)) if self.center_targets else 0.0

    def _factorise(
        self, K: np.ndarray, kernel: Kernel, centred: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """``(K^{-1}, alpha, log|K|)`` of ``K`` (built by ``kernel``) plus its noise.

        The one factorisation behind a refit from scratch and every likelihood
        evaluation of a fit.  It counts an ``op_counts["cholesky"]`` and
        assigns nothing else on the model.
        """
        K = K + self._noise_under(kernel) * np.eye(K.shape[0])
        self.op_counts["cholesky"] += 1
        L, _ = jittered_cholesky(K)
        K_inv = inverse_from_cholesky(L)
        return K_inv, K_inv @ centred, log_det_from_cholesky(L)

    def _fresh_state(
        self, X: np.ndarray, y: np.ndarray, kernel: Optional[Kernel] = None
    ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """``(K^{-1}, alpha, log|K|, offset)`` of a refit from scratch on ``X``, ``y``.

        Under ``kernel`` (default: the live one); assigns nothing on the model.
        """
        kernel = self.kernel if kernel is None else kernel
        offset = self._centre(y)
        return (*self._factorise(kernel(X, X), kernel, y - offset), offset)

    def _commit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        K_inv: np.ndarray,
        alpha: np.ndarray,
        log_det: Optional[float],
        offset: float,
        adds_since_refresh: int,
    ) -> None:
        """Install a complete model state and move :attr:`version` once."""
        self._X, self._y = X, y
        self._K_inv, self._alpha, self._log_det = K_inv, alpha, log_det
        self._offset = offset
        self._adds_since_refresh = adds_since_refresh
        self._version += 1

    def _refresh_log_det(self) -> None:
        K = self.kernel(self._X, self._X) + self.effective_noise() * np.eye(self._X.shape[0])
        L, _ = jittered_cholesky(K)
        self._log_det = log_det_from_cholesky(L)

    def _require_trained(self) -> None:
        if self._X is None:
            raise NotTrainedError("the GP has no training data yet")

    def __repr__(self) -> str:
        return (
            f"GaussianProcess(kernel={self.kernel!r}, n_training={self.n_training})"
        )


def _log_likelihood(centred: np.ndarray, alpha: np.ndarray, log_det: float) -> float:
    """``log p(y | X, theta)`` from the centred targets, ``alpha`` and ``log|K|`` (§3.4)."""
    fit_term = float(centred @ alpha)
    return -0.5 * fit_term - 0.5 * log_det - 0.5 * centred.size * _LOG_2PI


def _likelihood_gradient(
    alpha: np.ndarray, K_inv: np.ndarray, grads: list[np.ndarray]
) -> np.ndarray:
    """``dL/dtheta_j = 0.5 tr[(alpha alpha^T - K^{-1}) dK/dtheta_j]``."""
    inner = np.outer(alpha, alpha) - K_inv
    return np.array([0.5 * np.sum(inner * dK) for dK in grads])


def _likelihood_hessian_diag(
    K_inv: np.ndarray, y: np.ndarray, grads: list[np.ndarray], seconds: list[np.ndarray]
) -> np.ndarray:
    """``d^2 L / d theta_j^2`` for centred targets ``y``.

    Follows the formula quoted in Section 5.3 of the paper, with
    ``dK^{-1}/dtheta_j = -K^{-1} (dK/dtheta_j) K^{-1}``.
    """
    yyT = np.outer(y, y)
    K_inv_yyT = K_inv @ yyT
    hessian = np.empty(len(grads))
    for j, (dK, d2K) in enumerate(zip(grads, seconds)):
        dK_inv = -K_inv @ dK @ K_inv
        term1 = dK_inv @ K_inv_yyT.T  # (dK^{-1} y y^T K^{-1})
        term2 = K_inv_yyT @ dK_inv  # (K^{-1} y y^T dK^{-1})
        first = (term1 + term2 - dK_inv) @ dK
        second = (K_inv @ yyT @ K_inv - K_inv) @ d2K
        hessian[j] = 0.5 * float(np.trace(first) + np.trace(second))
    return hessian
