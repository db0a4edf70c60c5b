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
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
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

#: Cap on each state's local-inverse memo (:attr:`GPState.local_inverses`),
#: in summed matrix elements (8 MB of float64); oldest entries are evicted, a
#: larger inverse is never filed.
#: Elements, not entries, because entry counts do not bound memory.  Measured
#: (per-tuple ``process``, 200 samples, 500 tuples after 60 of warm-up):
#: quiet F1 / F3 streams look up one subset per model state — the whole
#: 57..128-point training set, 26..131 KB, up to 239 lookups per state —
#: while F4 at its 2 000-point ceiling looks up a different 278..1 988-point
#: subset on each of the 36 calls of its longest quiet run: no hits, and up
#: to 31.6 MB per inverse, which this cap declines to hold.
_LOCAL_INVERSE_CAP = 1 << 20


@dataclass(frozen=True, eq=False)
class GPState:
    """One trained GP state, as a value (§5.2).

    Everything :class:`GaussianProcess` predicts from.  The model holds one
    and replaces it whole on every mutation, so :meth:`~GaussianProcess.snapshot`
    returns it and :meth:`~GaussianProcess.restore` commits its fields again: a
    speculative step that overshoots rolls back with no copy and no
    factorization, to bitwise the predictions it had.  The arrays are
    read-only, so a state stays valid however the live model evolves.
    """

    X: np.ndarray
    y: np.ndarray
    offset: float
    K_inv: np.ndarray
    alpha: np.ndarray
    #: ``log|K|``, or ``None`` after an incremental add until the likelihood
    #: first needs it: :meth:`GaussianProcess.log_marginal_likelihood` then
    #: factorises ``K`` once and fills it in — the one field written after
    #: construction, from ``None`` to the value it stands for.
    log_det: Optional[float]
    adds_since_refresh: int
    #: A clone of the kernel, preserving hyperparameters in natural space —
    #: round-tripping through the log-space ``theta`` vector would perturb
    #: them by an ulp and break bitwise restore.  Never mutated.
    kernel: Kernel
    #: The model's :attr:`GaussianProcess.version` while this state is the
    #: committed one: each successor takes its predecessor's plus one, and a
    #: restore commits a state under the model's next version.
    version: int
    #: ``{subset key: inverse}`` — see :meth:`GaussianProcess.local_inverse`.
    #: Derived from the fields, so it does not cross a pickle.
    local_inverses: dict[bytes, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for array in (self.X, self.y, self.K_inv, self.alpha):
            array.setflags(write=False)

    def __reduce__(self):
        """Pickle as a constructor call: arrays come back read-only, memos empty."""
        return GPState, tuple(getattr(self, f.name) for f in fields(self) if f.init)

    @cached_property
    def target_range(self) -> float:
        """Width ``max(y) - min(y)`` of the training targets, reduced once per state."""
        return float(np.max(self.y) - np.min(self.y))


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

        #: The trained model, ``None`` while untrained.  Every mutation —
        #: :meth:`fit`, :meth:`add_point`, :meth:`add_points`,
        #: :meth:`set_hyperparameters`, :meth:`restore` — reads it once under
        #: the update lock, builds its successor in locals and commits it with
        #: one assignment, so a mutation that raises leaves it as it was.
        self._state: Optional[GPState] = None
        #: Serialises mutations: the async refinement pipeline keeps all GP
        #: updates on the coordinating thread by design, but the lock makes
        #: an accidental concurrent absorb corrupt nothing.
        self._update_lock = threading.RLock()
        #: Counts of factorization-grade operations performed over the model's
        #: lifetime: full Cholesky recomputes, O(n^2) rank-1 inverse updates,
        #: and O(n^2 k) blocked inverse updates.  The speculative tuning tests
        #: and benchmarks read these to quantify refinement-loop savings.
        self.op_counts: dict[str, int] = {"cholesky": 0, "rank1_update": 0, "block_update": 0}

    # -- pickling ----------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support: the update lock is process-local and not picklable."""
        state = dict(self.__dict__)
        del state["_update_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        """Recreate the process-local update lock after unpickling."""
        self.__dict__.update(state)
        self._update_lock = threading.RLock()

    # -- training-set accessors -------------------------------------------------
    @property
    def version(self) -> int:
        """Counter identifying the current model state (0 while untrained).

        Every mutation of a trained model moves it forward by one, so two
        equal readings bracket a window in which the model was untouched.
        """
        return 0 if self._state is None else self._state.version

    @property
    def n_training(self) -> int:
        """Number of training points currently in the model."""
        return 0 if self._state is None else int(self._state.X.shape[0])

    @property
    def X_train(self) -> np.ndarray:
        """Training inputs with shape ``(n, d)``."""
        return self._trained().X.copy()

    @property
    def y_train(self) -> np.ndarray:
        """Training targets with shape ``(n,)``."""
        return self._trained().y.copy()

    def target_range(self) -> float:
        """Width ``max(y) - min(y)`` of the training targets, reduced once per state."""
        return self._trained().target_range

    @property
    def alpha(self) -> np.ndarray:
        """The weight vector ``K^{-1} (y - offset)`` used for O(n) mean prediction (§5.1)."""
        return self._trained().alpha.copy()

    @property
    def mean_offset(self) -> float:
        """Constant added back to every mean prediction (0 when not centering)."""
        return 0.0 if self._state is None else self._state.offset

    @property
    def K_inv(self) -> np.ndarray:
        """Inverse of the (noise-augmented) training covariance matrix."""
        return self._trained().K_inv.copy()

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
            self._state = self._refit(X.copy(), y.copy(), self.kernel.clone(), self.version + 1)
        return self

    def add_point(self, x: np.ndarray, y: float) -> None:
        """Add one training point, updating ``K^{-1}`` incrementally (§5.2)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        with self._update_lock:
            state = self._state
            if state is not None and x.shape != (state.X.shape[1],):
                raise GPError(
                    f"point has shape {x.shape}, expected ({state.X.shape[1]},)"
                )
            self.add_points(x.reshape(1, -1), np.array([y]))

    def add_points(self, X_new: np.ndarray, y_new: np.ndarray) -> None:
        """Add ``k`` training points in one blocked ``O(n^2 k)`` update.

        Generalises :meth:`add_point`: the inverse covariance matrix absorbs
        the whole block at once via the Schur-complement identity instead of
        ``k`` successive rank-1 updates (one row takes the rank-1 update).  A
        rank-deficient block (duplicate or linearly dependent points) falls
        back to a full refit, which applies escalating jitter.
        """
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        if X_new.shape[0] != y_new.shape[0]:
            raise GPError(
                f"X_new has {X_new.shape[0]} rows but y_new has {y_new.shape[0]} values"
            )
        if X_new.shape[0] == 0:
            return
        with self._update_lock:
            state = self._state
            if state is None:
                self.fit(X_new, y_new)
                return
            if X_new.shape[1] != state.X.shape[1]:
                raise GPError(
                    f"points have {X_new.shape[1]} columns, expected {state.X.shape[1]}"
                )
            self._grow(state, X_new, y_new)

    def _grow(self, state: GPState, X_new: np.ndarray, y_new: np.ndarray) -> None:
        """Commit ``state``'s successor: its training set grown by the rows ``X_new`` (§5.2).

        ``K^{-1}`` grows by a rank-1 update for one row and by one blocked
        update for several.  A degenerate update (duplicate or linearly
        dependent points) raises :class:`GPError` and falls back to a full
        refit, which applies escalating jitter; every ``refresh_every`` added
        points also refit from scratch.  Either way the successor is built in
        locals and committed at the end, so a refit that raises leaves the
        model, its version included, as it was.
        """
        kernel, k = state.kernel, X_new.shape[0]
        noise = self._noise_under(kernel)
        K_cross = kernel(state.X, X_new)
        if k == 1:
            counter, update = "rank1_update", block_inverse_update
            K_cross, K_block = K_cross.ravel(), float(kernel.diag(X_new)[0]) + noise
        else:
            counter, update = "block_update", block_inverse_update_multi
            K_block = kernel(X_new, X_new) + noise * np.eye(k)
        try:
            new_inv = update(state.K_inv, K_cross, K_block)
        except GPError:
            new_inv = None
        else:
            self.op_counts[counter] += 1
        X = np.vstack([state.X, X_new])
        y = np.append(state.y, y_new)
        adds = state.adds_since_refresh + k
        if new_inv is None or adds >= self.refresh_every:
            self._state = self._refit(X, y, kernel, state.version + 1)
            return
        K_inv = symmetrize(new_inv)
        # The offset is kept for incremental updates and refreshed on the
        # next full refit; log|K| is filled in when the likelihood needs it.
        self._state = GPState(
            X, y, state.offset, K_inv, K_inv @ (y - state.offset), None, adds,
            kernel, state.version + 1,
        )

    def set_hyperparameters(self, theta: np.ndarray) -> None:
        """Set kernel hyperparameters (log space) and refit the matrices.

        The new state is computed on a clone of the kernel and committed
        only once its factorisation succeeds: a failure leaves the
        hyperparameters and the state, version included, as they were.
        """
        with self._update_lock:
            kernel = self.kernel.clone()
            kernel.theta = np.asarray(theta, dtype=float)
            state = self._state
            if state is not None:
                state = self._refit(state.X, state.y, kernel, state.version + 1)
            # In place: components hold references to the live kernel.
            self.kernel.__dict__.update(kernel.__dict__)
            self._state = state

    # -- state snapshot / rollback -------------------------------------------------
    @property
    def factorization_count(self) -> int:
        """Total factorization-grade operations performed so far.

        Sums full Cholesky recomputes, rank-1 inverse updates and blocked
        inverse updates — the quantity the speculative multi-point tuning
        strategy reduces by absorbing ``k`` points per operation.
        """
        return int(sum(self.op_counts.values()))

    def snapshot(self) -> Optional[GPState]:
        """The committed state (``None`` while untrained), for a later :meth:`restore`.

        O(1) and free of factorization work — the point of the speculative
        tuning loop is to save factorizations, so rolling back must not
        spend one.
        """
        return self._state

    def restore(self, state: Optional[GPState]) -> None:
        """Roll the model back to a state :meth:`snapshot` returned.

        Commits ``state``'s fields — its arrays, factorization and kernel
        hyperparameters, nothing recomputed — as a new state under the
        model's next :attr:`version`: a rollback is itself a mutation, so
        fences captured before the rolled-back step must not match it.
        ``None`` un-trains the model.  Operation counters are deliberately
        *not* rolled back: they account for work performed, and a
        rolled-back speculative step still performed its update.
        """
        with self._update_lock:
            if state is not None:
                # In place: components hold references to the live kernel.
                self.kernel.__dict__.update(state.kernel.__dict__)
                state = replace(state, version=self.version + 1)
            self._state = state

    # -- prediction ----------------------------------------------------------------
    def predict(
        self, X_test: np.ndarray, return_std: bool = True
    ) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
        """Posterior mean (and standard deviation) at the test inputs.

        Implements Eq. (2): ``m = K(X, X*) K(X*, X*)^{-1} f*`` and
        ``Sigma = K(X, X) - K(X, X*) K(X*, X*)^{-1} K(X*, X)`` (diagonal only).
        """
        state = self._trained()
        X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
        K_star = state.kernel(X_test, state.X)
        mean = K_star @ state.alpha + state.offset
        if not return_std:
            return mean
        # Only the marginal variances are needed by the framework.
        tmp = K_star @ state.K_inv
        var = state.kernel.diag(X_test) - np.sum(tmp * K_star, axis=1)
        var = np.maximum(var, 0.0)
        return mean, np.sqrt(var)

    def local_inverse(self, selected: np.ndarray) -> np.ndarray:
        """Inverse of the noise-augmented covariance of the training rows ``selected``.

        The ``O(l^3)`` step of local inference (§5.1).  It depends only on
        the model state and the subset, and a warm model serves long runs
        of tuples from one state, so the inverses are memoised on the state
        (:attr:`GPState.local_inverses`): a mutation commits a state with an
        empty memo, and an inverse built from one state is filed on that
        state, whatever the model committed meanwhile.  The returned array is
        shared between callers and read-only.
        """
        state = self._trained()
        memo = state.local_inverses
        key = selected.tobytes()
        inverse = memo.get(key)
        if inverse is None:
            X_local = state.X[selected]
            K_local = state.kernel(X_local, X_local)
            noise = self._noise_under(state.kernel)
            L, _ = jittered_cholesky(K_local + noise * np.eye(selected.size))
            inverse = inverse_from_cholesky(L)
            inverse.setflags(write=False)
            if inverse.size <= _LOCAL_INVERSE_CAP:
                held = sum(entry.size for entry in memo.values())
                while held + inverse.size > _LOCAL_INVERSE_CAP:
                    held -= memo.pop(next(iter(memo))).size
                memo[key] = inverse
        return inverse

    def predict_mean(self, X_test: np.ndarray) -> np.ndarray:
        """Posterior mean only — ``O(n)`` per test point via the cached alpha."""
        state = self._trained()
        X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
        return state.kernel(X_test, state.X) @ state.alpha + state.offset

    def sample_posterior(
        self, X_test: np.ndarray, n_samples: int = 1, random_state=None
    ) -> np.ndarray:
        """Draw sample functions from the posterior at the test inputs.

        Returns an array with shape ``(n_samples, len(X_test))``.  Used by
        tests to validate that the simultaneous confidence band actually
        contains posterior sample paths with the advertised probability.
        """
        from repro.rng import as_generator

        state = self._trained()
        X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
        K_star = state.kernel(X_test, state.X)
        mean = K_star @ state.alpha + state.offset
        cov = state.kernel(X_test, X_test) - K_star @ state.K_inv @ K_star.T
        cov = symmetrize(cov)
        L, _ = jittered_cholesky(cov + 1e-12 * np.eye(cov.shape[0]))
        rng = as_generator(random_state)
        z = rng.standard_normal(size=(n_samples, X_test.shape[0]))
        return mean + z @ L.T

    # -- marginal likelihood and derivatives ------------------------------------------
    def log_marginal_likelihood(self) -> float:
        """``log p(y | X, theta)`` for the current hyperparameters (§3.4)."""
        state = self._trained()
        return _log_likelihood(state.y - state.offset, state.alpha, self._log_det(state))

    def log_marginal_likelihood_gradient(self) -> np.ndarray:
        """Gradient of the log marginal likelihood w.r.t. ``kernel.theta``."""
        state = self._trained()
        return _likelihood_gradient(state.alpha, state.K_inv, state.kernel.gradients(state.X))

    def log_marginal_likelihood_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian diagonal of the log marginal likelihood.

        What the Newton-step retraining heuristic (Section 5.3) reads, from
        one distance matrix and one correlation evaluation.
        """
        state = self._trained()
        r = pairwise_dists(state.X, state.X)
        K = state.kernel.from_distances(r)
        grads = state.kernel.gradients_from_distances(r, K)
        seconds = state.kernel.second_derivatives_from_distances(r, K)
        return (
            _likelihood_gradient(state.alpha, state.K_inv, grads),
            _likelihood_hessian_diag(state.K_inv, state.y - state.offset, grads, seconds),
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
        y = self._trained().y
        centred = y - self._centre(y)

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

    def _cholesky(self, K: np.ndarray, kernel: Kernel) -> np.ndarray:
        """Cholesky factor of ``K`` (built by ``kernel``) plus its noise; counted."""
        K = K + self._noise_under(kernel) * np.eye(K.shape[0])
        self.op_counts["cholesky"] += 1
        L, _ = jittered_cholesky(K)
        return L

    def _factorise(
        self, K: np.ndarray, kernel: Kernel, centred: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """``(K^{-1}, alpha, log|K|)`` of ``K`` (built by ``kernel``) plus its noise.

        The one factorisation behind a refit from scratch and every likelihood
        evaluation of a fit; it assigns nothing on the model.
        """
        L = self._cholesky(K, kernel)
        K_inv = inverse_from_cholesky(L)
        return K_inv, K_inv @ centred, log_det_from_cholesky(L)

    def _refit(self, X: np.ndarray, y: np.ndarray, kernel: Kernel, version: int) -> GPState:
        """The state a refit from scratch on ``X``, ``y`` under ``kernel`` commits."""
        offset = self._centre(y)
        K_inv, alpha, log_det = self._factorise(kernel(X, X), kernel, y - offset)
        return GPState(X, y, offset, K_inv, alpha, log_det, 0, kernel, version)

    def _log_det(self, state: GPState) -> float:
        """``state.log_det``, filled in by one counted Cholesky of its ``K`` on first need."""
        with self._update_lock:
            if state.log_det is None:
                L = self._cholesky(state.kernel(state.X, state.X), state.kernel)
                object.__setattr__(state, "log_det", log_det_from_cholesky(L))
        return state.log_det

    def _trained(self) -> GPState:
        state = self._state
        if state is None:
            raise NotTrainedError("the GP has no training data yet")
        return state

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
