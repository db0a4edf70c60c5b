"""Numerical linear-algebra helpers for Gaussian-process inference.

Two concerns are centralised here:

* numerically robust Cholesky factorisation of kernel matrices (adding the
  smallest jitter that makes the matrix positive definite), and
* the incremental block-matrix inverse update of Section 5.2 — when online
  tuning adds one training point, the inverse covariance matrix is updated
  in ``O(n^2)`` instead of being recomputed from scratch in ``O(n^3)``; the
  blocked variant absorbs ``k`` new points at once in ``O(n^2 k)``, which is
  what batched execution uses when several training points arrive together.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GPError


def jittered_cholesky(matrix: np.ndarray, initial_jitter: float = 1e-10, max_tries: int = 8) -> tuple[np.ndarray, float]:
    """Cholesky factor of ``matrix`` with the smallest workable jitter.

    Returns ``(L, jitter)`` where ``L @ L.T == matrix + jitter * I``.  Kernel
    matrices of tightly clustered training points are frequently singular to
    machine precision; escalating jitter is the standard remedy.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise GPError(f"expected a square matrix, got shape {matrix.shape}")
    try:
        return np.linalg.cholesky(matrix), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = initial_jitter * max(1.0, float(np.mean(np.diag(matrix))))
    identity = np.eye(matrix.shape[0])
    last_tried = jitter
    for _ in range(max_tries):
        try:
            return np.linalg.cholesky(matrix + jitter * identity), jitter
        except np.linalg.LinAlgError:
            last_tried = jitter
            jitter *= 10.0
    raise GPError(
        f"matrix of shape {matrix.shape} is not positive definite even with "
        f"final jitter {last_tried:g} (escalated over {max_tries} tries); "
        "check for duplicate training points or a degenerate kernel"
    )


def stacked_jittered_cholesky(
    matrices: np.ndarray, initial_jitter: float = 1e-10, max_tries: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`jittered_cholesky` over a ``(B, n, n)`` stack, one call each.

    Returns ``(L, jitter)`` with ``L`` of shape ``(B, n, n)`` and ``jitter``
    of shape ``(B,)``.  Kept as a named loop because external profiling
    tools bind it by module and name.
    """
    matrices = np.asarray(matrices, dtype=float)
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise GPError(f"expected a (B, n, n) stack, got shape {matrices.shape}")
    factors = np.empty_like(matrices)
    jitters = np.zeros(matrices.shape[0])
    for b in range(matrices.shape[0]):
        factors[b], jitters[b] = jittered_cholesky(
            matrices[b], initial_jitter=initial_jitter, max_tries=max_tries
        )
    return factors, jitters


def solve_cholesky(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = b`` given the lower Cholesky factor ``L``."""
    from scipy.linalg import solve_triangular

    y = solve_triangular(L, b, lower=True)
    return solve_triangular(L.T, y, lower=False)


def inverse_from_cholesky(L: np.ndarray) -> np.ndarray:
    """Explicit inverse of ``L L^T`` (needed for incremental updates)."""
    identity = np.eye(L.shape[0])
    return solve_cholesky(L, identity)


def log_det_from_cholesky(L: np.ndarray) -> float:
    """``log |L L^T|`` computed stably from the Cholesky factor."""
    return float(2.0 * np.sum(np.log(np.diag(L))))


def block_inverse_update(K_inv: np.ndarray, k_new: np.ndarray, k_self: float) -> np.ndarray:
    """Grow an inverse covariance matrix by one row/column.

    Given ``K_inv = K^{-1}`` for the current ``n`` training points, the
    covariance vector ``k_new`` between the new point and the existing
    points, and the new point's self-covariance ``k_self`` (including any
    noise/jitter), return the inverse of the ``(n+1) x (n+1)`` matrix

    ``[[K, k_new], [k_new^T, k_self]]``

    using the standard block-matrix (Schur-complement) identity referenced
    in Section 5.2.  Cost is ``O(n^2)``.
    """
    K_inv = np.asarray(K_inv, dtype=float)
    k_new = np.asarray(k_new, dtype=float).reshape(-1)
    n = K_inv.shape[0]
    if k_new.shape != (n,):
        raise GPError(f"k_new has shape {k_new.shape}, expected ({n},)")
    v = K_inv @ k_new
    schur = float(k_self - k_new @ v)
    if schur <= 0:
        raise GPError(
            "Schur complement is non-positive; the new training point is "
            "numerically identical to an existing one"
        )
    top_left = K_inv + np.outer(v, v) / schur
    top_right = (-v / schur).reshape(n, 1)
    bottom = np.array([[1.0 / schur]])
    return np.block([[top_left, top_right], [top_right.T, bottom]])


def block_inverse_update_multi(
    K_inv: np.ndarray, K_cross: np.ndarray, K_block: np.ndarray
) -> np.ndarray:
    """Grow an inverse covariance matrix by ``k`` rows/columns at once.

    Given ``K_inv = K^{-1}`` for the current ``n`` training points, the
    cross-covariance ``K_cross`` (shape ``(n, k)``) between the existing and
    the ``k`` new points, and the new points' own covariance block
    ``K_block`` (shape ``(k, k)``, including any noise/jitter on its
    diagonal), return the inverse of the ``(n+k) x (n+k)`` matrix

    ``[[K, K_cross], [K_cross^T, K_block]]``

    via the block (Schur-complement) identity.  Cost is ``O(n^2 k)`` — the
    blocked generalisation of :func:`block_inverse_update` used when batched
    execution absorbs several training points in one step.

    Raises :class:`~repro.exceptions.GPError` when the Schur complement is
    not positive definite, i.e. the new points are (numerically) linearly
    dependent on each other or on the existing training set.
    """
    K_inv = np.asarray(K_inv, dtype=float)
    K_cross = np.asarray(K_cross, dtype=float)
    K_block = np.asarray(K_block, dtype=float)
    n = K_inv.shape[0]
    if K_cross.ndim != 2 or K_cross.shape[0] != n:
        raise GPError(f"K_cross has shape {K_cross.shape}, expected ({n}, k)")
    k = K_cross.shape[1]
    if K_block.shape != (k, k):
        raise GPError(f"K_block has shape {K_block.shape}, expected ({k}, {k})")
    V = K_inv @ K_cross
    schur = symmetrize(K_block - K_cross.T @ V)
    try:
        L = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError as exc:
        raise GPError(
            "Schur complement block is not positive definite; the new training "
            "points are rank-deficient against the existing training set "
            "(duplicate or linearly dependent points)"
        ) from exc
    schur_inv = inverse_from_cholesky(L)
    W = V @ schur_inv
    top_left = K_inv + W @ V.T
    return np.block([[top_left, -W], [-W.T, schur_inv]])


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part of ``matrix`` (damps accumulation of drift)."""
    return 0.5 * (matrix + matrix.T)
