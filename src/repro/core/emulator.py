"""GP emulation of black-box UDFs and the offline Algorithm 2 (§3, §4.1).

:class:`GPEmulator` owns the pieces shared by the offline and online
algorithms: the wrapped UDF, the Gaussian process fitted to the UDF's
input/output pairs, and hyperparameter training.  :func:`offline_gp_output`
is the paper's Algorithm 2 — collect a fixed training set, learn the GP
once, then compute output distributions for uncertain inputs by sampling the
emulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from repro.config import DEFAULT_BAND_ALPHA
from repro.core.confidence_bands import BandMethod, band_z_value
from repro.core.error_bounds import EnvelopeOutputs, build_envelope_outputs
from repro.distributions.base import Distribution
from repro.distributions.empirical import EmpiricalDistribution
from repro.exceptions import GPError, UDFError
from repro.gp.kernels import Kernel, SquaredExponential
from repro.gp.regression import GaussianProcess, GPStateSnapshot
from repro.gp.training import fit_hyperparameters, initial_hyperparameters
from repro.index.bounding_box import BoundingBox
from repro.rng import RandomState, as_generator
from repro.udf.base import UDF

Design = Literal["random", "grid", "halton"]


@dataclass(frozen=True)
class EmulatorSnapshot:
    """Emulator-level rollback state: the GP state plus emulator flags.

    The hyperparameter-trained flag lives on the emulator, not the GP, so a
    :meth:`GPEmulator.restore` that reverts kernel values must revert the
    flag with them — otherwise retraining logic would run against restored
    hyperparameters while believing a retrain already happened.
    """

    gp_state: GPStateSnapshot
    trained_hyperparameters: bool


class GPEmulator:
    """A Gaussian-process emulator of one black-box UDF.

    The emulator owns the UDF's accumulated training data (input/output
    pairs obtained by actually calling the UDF) and the fitted GP.
    Inference scans the training rows; the paper's R-tree over them
    (:class:`~repro.index.rtree.RTree`) is built by the callers that
    measure retrieval, from :attr:`gp.X_train <repro.gp.regression
    .GaussianProcess.X_train>`.
    """

    def __init__(
        self,
        udf: UDF,
        kernel: Optional[Kernel] = None,
        noise_variance: float = 1e-8,
    ):
        self.udf = udf
        self.gp = GaussianProcess(
            kernel=kernel if kernel is not None else SquaredExponential(),
            noise_variance=noise_variance,
        )
        self._trained_hyperparameters = False

    # -- training data management ---------------------------------------------------
    @property
    def n_training(self) -> int:
        """Number of UDF evaluations collected as training data."""
        return self.gp.n_training

    def add_training_point(self, x: np.ndarray) -> float:
        """Evaluate the UDF at ``x`` and absorb the pair into the model."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.udf.dimension,):
            raise UDFError(
                f"training point has shape {x.shape}, expected ({self.udf.dimension},)"
            )
        y = self.udf(x)
        self.gp.add_point(x, y)
        return y

    def add_training_points(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the UDF at every row of ``X`` and absorb them in one step.

        Uses the blocked incremental-inverse update (``O(n^2 k)`` for ``k``
        new points) instead of ``k`` rank-1 updates.  Returns the UDF values
        observed.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            return np.empty(0)
        if X.shape[1] != self.udf.dimension:
            raise UDFError(
                f"training points have {X.shape[1]} columns, expected {self.udf.dimension}"
            )
        y = self.udf.evaluate_batch(X)
        self.absorb_observations(X, y)
        return y

    def absorb_observations(
        self, X: np.ndarray, y: np.ndarray, fence: Optional["EmulatorSnapshot"] = None
    ) -> None:
        """Absorb already-evaluated ``(x, y)`` pairs without calling the UDF.

        This is how training points obtained *elsewhere* enter the model: a
        parallel worker merging its shard's additions back into the parent
        emulator, the speculative tuning loop re-committing observations it
        already paid for before a rollback, or the asynchronous refinement
        pipeline landing UDF results that were in flight.  Uses the blocked
        incremental update, exactly like :meth:`add_training_points` — minus
        the UDF evaluations.

        ``fence``, when given, must be the :meth:`snapshot` the observations
        were *selected against*: if the model mutated since that snapshot was
        taken (its GP state version moved on), the absorb raises
        :class:`~repro.exceptions.GPError` instead of silently applying
        observations chosen for a state that no longer exists.  This is the
        guard the async pipeline relies on — results completing out of order
        are only absorbed while the snapshot they speculate against is still
        the live state.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] == 0:
            return
        if X.shape[1] != self.udf.dimension:
            raise UDFError(
                f"observations have {X.shape[1]} columns, expected {self.udf.dimension}"
            )
        if X.shape[0] != y.shape[0]:
            raise UDFError(f"X has {X.shape[0]} rows but y has {y.shape[0]} values")
        if fence is not None and fence.gp_state.version != self.gp.version:
            raise GPError(
                "stale snapshot fence: the model mutated since the snapshot "
                f"(version {fence.gp_state.version} -> {self.gp.version}); "
                "the observations were selected against a state that no longer exists"
            )
        self.gp.add_points(X, y)

    def snapshot(self) -> "EmulatorSnapshot":
        """Capture the model state for a later :meth:`restore` (rollback)."""
        return EmulatorSnapshot(
            gp_state=self.gp.snapshot(),
            trained_hyperparameters=self._trained_hyperparameters,
        )

    def restore(self, state: "EmulatorSnapshot") -> None:
        """Roll the model back to a snapshot — free of factorization work."""
        self.gp.restore(state.gp_state)
        self._trained_hyperparameters = state.trained_hyperparameters

    def train_initial(
        self,
        n_points: int,
        design: Design = "random",
        domain: Optional[tuple[np.ndarray, np.ndarray]] = None,
        random_state: RandomState = None,
        optimize_hyperparameters: bool = True,
        driver=None,
    ) -> None:
        """Collect an initial training design and learn hyperparameters.

        ``domain`` defaults to the UDF's declared domain.  Designs:
        ``"random"`` (uniform), ``"grid"`` (regular lattice, rounded up to a
        full grid), or ``"halton"`` (low-discrepancy; better space filling
        for the same budget).

        ``driver`` — an evaluation driver such as
        :class:`~repro.engine.async_exec.AsyncEvaluationDriver` — carries
        the design's UDF evaluations: every row is submitted at once (the
        transport's width bounds the concurrency) and every submission is
        drained if one fails.  With a genuinely slow black box the design
        otherwise costs ``n_points`` serial latencies before the first tuple
        can start.  The observed values — and the model trained on them —
        are identical either way; only wall-clock changes.
        """
        if n_points <= 0:
            raise GPError("n_points must be positive")
        low, high = self._resolve_domain(domain)
        points = _design_points(n_points, low, high, design, random_state)
        if driver is None:
            values = self.udf.evaluate_batch(points)
        else:
            futures = driver.submit(self.udf, points)
            try:
                values = np.array([future.result() for future in futures])
            except BaseException:
                driver.drain(futures)
                raise
        self.gp.fit(points, values)
        if optimize_hyperparameters:
            self.retrain()

    def retrain(self) -> None:
        """Maximum-likelihood refit of the kernel hyperparameters (§3.4)."""
        if self.gp.n_training == 0:
            raise GPError("cannot retrain an emulator with no training data")
        fit_hyperparameters(
            self.gp, start=initial_hyperparameters(self.gp.X_train, self.gp.y_train)
        )
        self._trained_hyperparameters = True

    # -- inference --------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Global GP inference: posterior mean and std at the rows of ``X``."""
        return self.gp.predict(X, return_std=True)

    def _resolve_domain(
        self, domain: Optional[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        if domain is not None:
            return np.asarray(domain[0], dtype=float), np.asarray(domain[1], dtype=float)
        if self.udf.domain is not None:
            return self.udf.domain
        raise GPError(
            "no training domain available: pass one explicitly or declare it on the UDF"
        )


@dataclass(frozen=True)
class GPOutputResult:
    """Output of computing one uncertain tuple through a GP emulator."""

    #: The distribution of ``Ŷ'`` returned to the user.
    distribution: EmpiricalDistribution
    #: The three empirical variables used for error bounding.
    envelope: EnvelopeOutputs
    #: Number of Monte-Carlo input samples used.
    n_samples: int
    #: Number of UDF calls charged while processing this tuple.
    udf_calls: int
    #: Wall-clock plus simulated UDF cost in seconds.
    charged_time: float
    #: Number of training points in the model after processing the tuple.
    n_training: int


def emulate_output(
    emulator: GPEmulator,
    input_distribution: Distribution,
    n_samples: int,
    band_alpha: float = DEFAULT_BAND_ALPHA,
    band_method: BandMethod = "euler",
    random_state: RandomState = None,
) -> GPOutputResult:
    """Propagate one uncertain input through a *trained* emulator.

    This is the inference part of Algorithm 2: draw input samples, predict
    with the GP, and build the empirical output variables plus envelope.
    """
    if n_samples <= 0:
        raise GPError("n_samples must be positive")
    rng = as_generator(random_state)
    calls_before = emulator.udf.call_count
    time_before = emulator.udf.charged_time

    samples = input_distribution.sample(n_samples, random_state=rng)
    means, stds = emulator.predict(samples)
    band = band_z_value(
        emulator.gp.kernel,
        BoundingBox.from_points(samples),
        alpha=band_alpha,
        method=band_method,
        n_points=n_samples,
    )
    envelope = build_envelope_outputs(means, stds, band.z_value)
    return GPOutputResult(
        distribution=envelope.y_hat,
        envelope=envelope,
        n_samples=n_samples,
        udf_calls=emulator.udf.call_count - calls_before,
        charged_time=emulator.udf.charged_time - time_before,
        n_training=emulator.n_training,
    )


def offline_gp_output(
    udf: UDF,
    input_distribution: Distribution,
    n_training: int,
    n_samples: int,
    kernel: Optional[Kernel] = None,
    design: Design = "random",
    band_alpha: float = DEFAULT_BAND_ALPHA,
    band_method: BandMethod = "euler",
    random_state: RandomState = None,
) -> GPOutputResult:
    """Algorithm 2 end-to-end: train offline on ``n_training`` points, then infer."""
    from dataclasses import replace

    rng = as_generator(random_state)
    calls_before = udf.call_count
    charged_before = udf.charged_time
    emulator = GPEmulator(udf, kernel=kernel)
    emulator.train_initial(n_training, design=design, random_state=rng)
    result = emulate_output(
        emulator,
        input_distribution,
        n_samples,
        band_alpha=band_alpha,
        band_method=band_method,
        random_state=rng,
    )
    # Charge the offline training phase to this result as well, so the cost
    # accounting covers the full Algorithm 2 run.
    return replace(
        result,
        udf_calls=udf.call_count - calls_before,
        charged_time=udf.charged_time - charged_before,
    )


def _design_points(
    n_points: int,
    low: np.ndarray,
    high: np.ndarray,
    design: Design,
    random_state: RandomState,
) -> np.ndarray:
    """Generate an initial training design inside ``[low, high]``."""
    d = low.size
    if design == "random":
        rng = as_generator(random_state)
        return rng.uniform(low, high, size=(n_points, d))
    if design == "grid":
        per_dim = int(np.ceil(n_points ** (1.0 / d)))
        axes = [np.linspace(low[i], high[i], per_dim) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        return points[:n_points] if points.shape[0] >= n_points else points
    if design == "halton":
        from scipy.stats import qmc

        sampler = qmc.Halton(d=d, scramble=True, seed=as_generator(random_state))
        unit = sampler.random(n_points)
        return qmc.scale(unit, low, high)
    raise GPError(f"unknown design {design!r}")
