"""Ground-truth audit of ``certain`` outputs.

Bit-identity between execution plans proves consistency, not truth.  The
``certain`` verdict claims the output distribution is within epsilon of the
real one, so after timing (and with tracing off) each kept output is compared
against a 20 000-sample direct evaluation of a zero-cost copy of its UDF.  The
distance is the lambda-discrepancy the processor bounds, with lambda taken as
the library's default fraction of the function's true output range.  The
processor takes that fraction of its GP's training-output range, which is never
wider, so this lambda is the larger one and the audit the more lenient (fewer
intervals qualify); the processor's own value is not public.  The paper's
contract allows a share delta of outputs beyond epsilon; more fails
the run.
"""

from __future__ import annotations

import numpy as np

from repro.config import DEFAULT_LAMBDA_FRACTION
from repro.core.metrics import lambda_discrepancy
from repro.udf.synthetic import reference_function
from repro.workloads.generators import true_output_distribution

from perfbench.workloads import DELTA, AuditItem

TRUTH_SAMPLES = 20_000


def _lambda_for(udf) -> float:
    """Default lambda fraction of the output range over the UDF's domain."""
    low, high = udf.domain
    axes = [np.linspace(lo, hi, 201) for lo, hi in zip(low, high)]
    grid = np.stack([axis.ravel() for axis in np.meshgrid(*axes)], axis=1)
    values = udf.with_simulated_eval_time(0.0).evaluate_batch(grid)
    return DEFAULT_LAMBDA_FRACTION * float(np.max(values) - np.min(values))


def audit(items: list[AuditItem], seed: int) -> tuple[int, int]:
    """``(audited, violations)`` over ``items``."""
    rng = np.random.default_rng([seed, 99])
    references: dict[str, tuple] = {}
    violations = 0
    for item in items:
        if item.function not in references:
            udf = reference_function(item.function)
            references[item.function] = (udf, _lambda_for(udf))
        udf, lam = references[item.function]
        truth = true_output_distribution(
            udf, item.input_distribution, TRUTH_SAMPLES, random_state=rng
        )
        violations += lambda_discrepancy(item.output, truth, lam) > item.epsilon
    return len(items), violations


def passes(audited: int, violations: int) -> bool:
    """Whether the audited sample honours the (epsilon, delta) contract."""
    return audited > 0 and violations <= DELTA * audited
