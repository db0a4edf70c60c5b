"""Hyperparameter learning for GP emulators (Section 3.4 and 5.3).

The paper learns kernel hyperparameters by maximum likelihood.  Three entry
points are provided:

* :func:`initial_hyperparameters` — data-driven starting point
  (signal std = std of targets, lengthscale = median pairwise distance).
* :func:`fit_hyperparameters` — full MLE optimisation, either via L-BFGS on
  the analytic gradient (default; robust) or plain gradient ascent (the
  paper's description).
* :func:`gradient_step` / :func:`newton_step` — a *single* optimiser step,
  used by the online retraining heuristic of Section 5.3, which only triggers
  a full retrain when the first step proposes a large hyperparameter move.

A fit computes the training inputs' distance matrix once — the
hyperparameters do not move it — and minimises
:meth:`~repro.gp.regression.GaussianProcess.likelihood_objective` over it:
one kernel matrix and one factorisation per evaluation, on a clone of the
kernel, with the model untouched until ``set_hyperparameters`` applies the
optimum once (so a fit moves the model's version once, and a fit that fails
leaves the model as it was).  Every number is bitwise what setting each
evaluated ``theta`` on the model and reading its likelihood would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize

from repro.exceptions import GPError
from repro.gp.kernels import pairwise_dists, pairwise_sq_dists
from repro.gp.regression import GaussianProcess

#: Fallback bounds (log space) used when no data-driven bounds are available.
_LOG_BOUNDS = (-10.0, 10.0)


def hyperparameter_bounds(X: np.ndarray, y: np.ndarray) -> list[tuple[float, float]]:
    """Data-driven log-space bounds ``[(signal), (lengthscale)]`` for the MLE.

    Unconstrained maximum likelihood on noise-free data with few points has a
    well-known degenerate mode: a near-zero lengthscale with a huge signal
    variance explains the data as white noise and leaves the emulator unable
    to generalise at all.  Restricting the lengthscale to lie between half
    the smallest training-point spacing and ten times the data diameter (and
    the signal standard deviation to a broad band around the target spread)
    removes that mode without affecting sensible optima.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _bounds_from_distances(pairwise_dists(X, X), y)


def _bounds_from_distances(
    distances: np.ndarray, y: np.ndarray
) -> list[tuple[float, float]]:
    """:func:`hyperparameter_bounds` from the inputs' Euclidean distances."""
    y = np.asarray(y, dtype=float).ravel()
    signal = float(np.std(y))
    if signal <= 0 or not np.isfinite(signal):
        signal = 1.0
    # The GP is fitted to centred targets, so the signal standard deviation
    # should be on the order of std(y); a factor-3 headroom is ample.
    signal_bounds = (np.log(signal * 1e-1), np.log(signal * 3.0))
    if distances.shape[0] >= 2:
        upper = distances[np.triu_indices_from(distances, k=1)]
        positive = upper[upper > 0]
        if positive.size:
            lengthscale_bounds = (
                np.log(max(0.5 * float(np.min(positive)), 1e-8)),
                np.log(2.0 * float(np.max(positive))),
            )
        else:
            lengthscale_bounds = _LOG_BOUNDS
    else:
        lengthscale_bounds = _LOG_BOUNDS
    return [signal_bounds, lengthscale_bounds]


@dataclass(frozen=True)
class TrainingResult:
    """Outcome of a hyperparameter optimisation."""

    theta: np.ndarray
    log_likelihood: float
    n_iterations: int
    converged: bool


def initial_hyperparameters(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Heuristic log-space initialisation ``[log sigma_f, log l]``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    signal = float(np.std(y))
    if signal <= 0 or not np.isfinite(signal):
        signal = 1.0
    if X.shape[0] >= 2:
        sq = pairwise_sq_dists(X, X)
        upper = sq[np.triu_indices_from(sq, k=1)]
        positive = upper[upper > 0]
        lengthscale = float(np.sqrt(np.median(positive))) if positive.size else 1.0
    else:
        lengthscale = 1.0
    if lengthscale <= 0 or not np.isfinite(lengthscale):
        lengthscale = 1.0
    return np.log(np.array([signal, lengthscale]))


def fit_hyperparameters(
    gp: GaussianProcess,
    method: str = "lbfgs",
    max_iterations: int = 100,
    learning_rate: float = 0.1,
    tolerance: float = 1e-5,
    start: Optional[np.ndarray] = None,
) -> TrainingResult:
    """Maximise the log marginal likelihood of ``gp`` in place.

    Parameters
    ----------
    gp:
        A fitted :class:`GaussianProcess`; its kernel hyperparameters are
        updated to the optimum found.
    method:
        ``"lbfgs"`` (default) uses scipy's L-BFGS-B with the analytic
        gradient; ``"gradient"`` performs plain gradient ascent with a
        backtracking step size, mirroring the paper's description.
    start:
        Log-space ``theta`` to start from instead of the model's own.  The
        fit runs bitwise as if ``gp.set_hyperparameters(start)`` had been
        called first, without that call's factorisation and version move.
    """
    if gp.n_training == 0:
        raise GPError("cannot train a GP without training data")
    if method not in ("lbfgs", "gradient"):
        raise GPError(f"unknown training method {method!r}")

    if start is not None:
        # Round-trip through a kernel, as set_hyperparameters stores it.
        kernel = gp.kernel.clone()
        kernel.theta = np.asarray(start, dtype=float)
        start = kernel.theta
    if method == "lbfgs":
        return _fit_lbfgs(gp, max_iterations, start)
    return _fit_gradient_ascent(gp, max_iterations, learning_rate, tolerance, start)


def gradient_step(gp: GaussianProcess, learning_rate: float = 0.1) -> np.ndarray:
    """One gradient-ascent step; returns the *proposed* theta (not applied)."""
    gradient = gp.log_marginal_likelihood_gradient()
    return gp.kernel.theta + learning_rate * gradient


def newton_step(gp: GaussianProcess, max_step: float = 2.0) -> np.ndarray:
    """One (diagonal) Newton step; returns the *proposed* theta (not applied).

    The paper's retraining heuristic (Section 5.3) inspects how far the very
    first Newton step would move the hyperparameters.  Coordinates whose
    second derivative is non-negative (locally non-concave) fall back to a
    gradient step, and each coordinate's move is clipped to ``max_step`` so a
    nearly flat likelihood cannot propose an absurd jump.
    """
    gradient, hessian_diag = gp.log_marginal_likelihood_derivatives()
    step = np.empty_like(gradient)
    for j in range(gradient.size):
        if hessian_diag[j] < -1e-12:
            step[j] = -gradient[j] / hessian_diag[j]
        else:
            step[j] = 0.1 * gradient[j]
    step = np.clip(step, -max_step, max_step)
    return gp.kernel.theta + step


def _fit_lbfgs(
    gp: GaussianProcess, max_iterations: int, start: Optional[np.ndarray]
) -> TrainingResult:
    distances = pairwise_dists(gp.X_train, gp.X_train)
    objective = gp.likelihood_objective(distances)
    bounds = _bounds_from_distances(distances, gp.y_train)
    theta0 = np.clip(
        gp.kernel.theta if start is None else start,
        [b[0] for b in bounds],
        [b[1] for b in bounds],
    )
    result = optimize.minimize(
        objective,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": max_iterations},
    )
    gp.set_hyperparameters(result.x)
    return TrainingResult(
        theta=np.asarray(result.x, dtype=float),
        log_likelihood=float(-result.fun),
        n_iterations=int(result.nit),
        converged=bool(result.success),
    )


def _fit_gradient_ascent(
    gp: GaussianProcess,
    max_iterations: int,
    learning_rate: float,
    tolerance: float,
    start: Optional[np.ndarray],
) -> TrainingResult:
    objective = gp.likelihood_objective(pairwise_dists(gp.X_train, gp.X_train))
    if start is None:
        theta = gp.kernel.theta
        best_ll = gp.log_marginal_likelihood()
        gradient = gp.log_marginal_likelihood_gradient()
    else:
        theta = start
        negative_ll, negative_gradient = objective(theta)
        best_ll, gradient = -negative_ll, -negative_gradient
    # The model's own warm start may have an incrementally grown inverse;
    # every theta the objective evaluated was factorised from scratch.
    factorised = start is not None
    step = learning_rate
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        if float(np.max(np.abs(gradient))) < tolerance:
            converged = True
            break
        proposal = np.clip(theta + step * gradient, *_LOG_BOUNDS)
        negative_ll, negative_gradient = objective(proposal)
        if -negative_ll > best_ll:
            theta = proposal
            best_ll = -negative_ll
            gradient = -negative_gradient
            factorised = True
            step = min(step * 1.2, 1.0)
        else:
            # Backtrack: shrink the step, keeping the gradient at theta once
            # it comes from a factorisation from scratch.
            step *= 0.5
            if step < 1e-6:
                converged = True
                break
            if not factorised:
                gradient = -objective(theta)[1]
                factorised = True
    gp.set_hyperparameters(theta)
    return TrainingResult(
        theta=theta,
        log_likelihood=best_ll,
        n_iterations=iterations,
        converged=converged,
    )
