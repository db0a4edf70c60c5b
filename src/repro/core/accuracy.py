"""Accuracy requirements, error budgets, and MC sample-size bounds.

Captures the (ε, δ)-approximation objective of Definition 4, the DKW-based
sample-size formula of Section 2.2 (``m = ln(2/δ) / (2 ε²)`` for the KS
measure, and twice the KS budget for discrepancy because
``D <= 2 KS``), and the split of the total error budget between Monte-Carlo
sampling and GP modelling required by Theorem 4.1
(``ε = ε_MC + ε_GP`` and ``1 - δ = (1 - δ_MC)(1 - δ_GP)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

from repro.config import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    DEFAULT_LAMBDA_FRACTION,
    DEFAULT_MC_DELTA_FRACTION,
    DEFAULT_MC_FRACTION,
)
from repro.exceptions import AccuracyError

Metric = Literal["discrepancy", "ks"]


@dataclass(frozen=True)
class AccuracyRequirement:
    """User-specified accuracy goal ``(ε, δ)`` for a chosen metric.

    ``lambda_value`` is the minimum interval length of the λ-discrepancy; it
    is expressed in output units, and OLGAPRO bounds its outputs against it.
    When ``None``, OLGAPRO derives λ as a fraction of the observed output
    range (its ``lambda_fraction``).
    """

    epsilon: float = DEFAULT_EPSILON
    delta: float = DEFAULT_DELTA
    metric: Metric = "discrepancy"
    lambda_value: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise AccuracyError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise AccuracyError(f"delta must be in (0, 1), got {self.delta}")
        if self.metric not in ("discrepancy", "ks"):
            raise AccuracyError(f"unknown metric {self.metric!r}")
        if self.lambda_value is not None and self.lambda_value < 0:
            raise AccuracyError("lambda_value must be non-negative")

    def with_lambda_fraction(self, output_range: float, fraction: float = DEFAULT_LAMBDA_FRACTION) -> "AccuracyRequirement":
        """Requirement with λ set to ``fraction`` of ``output_range``."""
        if output_range <= 0:
            raise AccuracyError("output_range must be positive")
        return replace(self, lambda_value=fraction * output_range)

    def split(
        self,
        mc_fraction: float = DEFAULT_MC_FRACTION,
        mc_delta_fraction: float = DEFAULT_MC_DELTA_FRACTION,
    ) -> "ErrorBudget":
        """Allocate the budget between MC sampling and GP modelling.

        ``mc_fraction`` is the share of ε given to the sampling error
        (Profile 3 of the paper recommends 0.7).  δ is split so that
        ``(1 - δ_MC)(1 - δ_GP) = 1 - δ``.
        """
        if not (0.0 < mc_fraction < 1.0):
            raise AccuracyError("mc_fraction must be in (0, 1)")
        if not (0.0 < mc_delta_fraction < 1.0):
            raise AccuracyError("mc_delta_fraction must be in (0, 1)")
        epsilon_mc = mc_fraction * self.epsilon
        epsilon_gp = self.epsilon - epsilon_mc
        # Split the log of the joint confidence between the two sources.
        log_keep = math.log1p(-self.delta)
        delta_mc = -math.expm1(mc_delta_fraction * log_keep)
        delta_gp = -math.expm1((1.0 - mc_delta_fraction) * log_keep)
        return ErrorBudget(
            requirement=self,
            epsilon_mc=epsilon_mc,
            epsilon_gp=epsilon_gp,
            delta_mc=delta_mc,
            delta_gp=delta_gp,
        )


@dataclass(frozen=True)
class ErrorBudget:
    """Split of a requirement's (ε, δ) between MC sampling and GP modelling."""

    requirement: AccuracyRequirement
    epsilon_mc: float
    epsilon_gp: float
    delta_mc: float
    delta_gp: float

    def __post_init__(self) -> None:
        if self.epsilon_mc <= 0 or self.epsilon_gp <= 0:
            raise AccuracyError("both epsilon shares must be positive")
        total = self.epsilon_mc + self.epsilon_gp
        if not math.isclose(total, self.requirement.epsilon, rel_tol=1e-9, abs_tol=1e-12):
            raise AccuracyError(
                f"epsilon shares ({total}) must sum to the requirement ({self.requirement.epsilon})"
            )
        joint = (1.0 - self.delta_mc) * (1.0 - self.delta_gp)
        if joint + 1e-9 < 1.0 - self.requirement.delta:
            raise AccuracyError(
                "delta split provides less confidence than the requirement demands"
            )

    @property
    def mc_samples(self) -> int:
        """Monte-Carlo sample count satisfying the MC share of the budget."""
        return required_mc_samples(self.epsilon_mc, self.delta_mc, self.requirement.metric)


def required_mc_samples(epsilon: float, delta: float, metric: Metric = "discrepancy") -> int:
    """Sample count for an (ε, δ)-approximation by plain Monte Carlo (§2.2).

    The DKW-type bound gives ``m = ln(2/δ) / (2 ε²)`` for the KS measure.
    Because ``D(Y, Y') <= 2 * KS(Y, Y')``, achieving discrepancy ε requires
    targeting KS ε/2, i.e. four times as many samples.  The paper's worked
    example (ε = 0.02, δ = 0.05, discrepancy) requires m > 18 000, which this
    formula reproduces.
    """
    if not (0.0 < epsilon < 1.0):
        raise AccuracyError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise AccuracyError(f"delta must be in (0, 1), got {delta}")
    if metric == "discrepancy":
        ks_epsilon = epsilon / 2.0
    elif metric == "ks":
        ks_epsilon = epsilon
    else:
        raise AccuracyError(f"unknown metric {metric!r}")
    return int(math.ceil(math.log(2.0 / delta) / (2.0 * ks_epsilon**2)))


def ks_epsilon_for_samples(m: int, delta: float) -> float:
    """Invert :func:`required_mc_samples`: KS error achievable with ``m`` samples."""
    if m <= 0:
        raise AccuracyError("m must be positive")
    if not (0.0 < delta < 1.0):
        raise AccuracyError(f"delta must be in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * m))
