"""Ground truth: every plan's kept outputs honour the (ε, δ) contract.

Bit-identity between plans proves they compute the same thing, not that the
thing is true (the certain ⊆ truth argument of UA-DBs).  Here each plan's
outputs are held against the real output distribution instead: a
20 000-sample direct evaluation of a zero-cost copy of the UDF
(:func:`~repro.workloads.generators.true_output_distribution`).

* A kept output is within its claim of its truth in λ-discrepancy, except
  for at most a δ share of the outputs.  The claim is ε for a *certain*
  output (bound within ε) and the output's own error bound (Theorem 4.1)
  for one that hit the refinement cap unconverged, as cold F4 tuples do.
  λ is the library's default fraction of the
  UDF's *true* output range over its domain, as in ``perfbench/audit.py``;
  the processor takes that fraction of its training-output range, which is
  never wider, so this λ is the larger one and the check the more lenient.
  :func:`~repro.core.metrics.lambda_discrepancy` still has ROADMAP 1(a)'s
  lenient interval endpoints (taken from the pair's own samples only), so
  it can under-read the true distance.
* A dropped tuple's true existence probability is below the predicate's
  threshold θ: online filtering never drops a tuple the predicate keeps.

Two regimes: a warm F1 model (ε = 0.12), where most tuples commit their
first bound, and cold F4 models (ε = 0.2), where every tuple refines.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.config import DEFAULT_LAMBDA_FRACTION
from repro.core.accuracy import AccuracyRequirement
from repro.core.metrics import lambda_discrepancy
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.udf.synthetic import reference_function
from repro.workloads.generators import (
    input_stream,
    selectivity_predicate,
    true_output_distribution,
    workload_for_udf,
)

DELTA = 0.05
TRUTH_SAMPLES = 20_000

PLANS = {
    "per-tuple": ExecutionPlan(),
    "batch": ExecutionPlan(batch_size=32),
    "window": ExecutionPlan(async_inflight=4),
    "lookahead": ExecutionPlan(pipeline_lookahead=4),
    "workers-discard": ExecutionPlan(workers=2),
    "workers-shared": ExecutionPlan(workers=2, merge="shared"),
}

#: ``function: (epsilon, warm-up tuples, queried tuples)``.
REGIMES = {"warm-F1": ("F1", 0.12, 48, 32), "cold-F4": ("F4", 0.2, 0, 8)}


def _true_range_lambda(udf) -> float:
    """Default λ fraction of the UDF's output range over its domain."""
    low, high = udf.domain
    axes = [np.linspace(lo, hi, 201) for lo, hi in zip(low, high)]
    grid = np.stack([axis.ravel() for axis in np.meshgrid(*axes)], axis=1)
    values = udf.with_simulated_eval_time(0.0).evaluate_batch(grid)
    return DEFAULT_LAMBDA_FRACTION * float(np.max(values) - np.min(values))


@pytest.fixture(scope="module", params=sorted(REGIMES))
def regime(request):
    """A (warmed) engine, its UDF, the query, the predicate and the truths."""
    function, epsilon, n_warm, n_tuples = REGIMES[request.param]
    udf = reference_function(function)
    spec = workload_for_udf(udf)
    engine = UDFExecutionEngine(
        "gp", requirement=AccuracyRequirement(epsilon, DELTA), random_state=1
    )
    rng = np.random.default_rng(7)
    if n_warm:
        warm = list(input_stream(spec, n_warm, random_state=rng))
        engine.compute_with_plan(udf, warm, ExecutionPlan(batch_size=32))
    dists = list(input_stream(spec, n_tuples, random_state=rng))
    truths = [
        true_output_distribution(udf, dist, TRUTH_SAMPLES, random_state=np.random.default_rng(i))
        for i, dist in enumerate(dists)
    ]
    predicate = selectivity_predicate(udf, spec, 0.5, random_state=0)
    return engine, udf, dists, truths, predicate, _true_range_lambda(udf), epsilon


@pytest.mark.parametrize("plan_name", list(PLANS))
def test_kept_outputs_are_within_their_claim_of_the_truth(regime, plan_name):
    engine, udf, dists, truths, predicate, lam, epsilon = regime
    # Each plan runs on its own copy of the (warm) engine and its UDF.
    engine, udf = copy.deepcopy((engine, udf))
    outputs = engine.compute_with_plan(udf, dists, PLANS[plan_name], predicate=predicate)
    kept, beyond = 0, 0
    for output, truth in zip(outputs, truths):
        assert not output.failed
        if output.dropped:
            true_existence = truth.interval_probability(predicate.low, predicate.high)
            assert true_existence < predicate.threshold, plan_name
            continue
        kept += 1
        claim = max(epsilon, output.error_bound)
        beyond += lambda_discrepancy(output.distribution, truth, lam) > claim
    assert kept > 0, "the predicate dropped everything: nothing was checked"
    assert beyond <= DELTA * kept, f"{beyond} of {kept} kept outputs beyond their claim"
