"""Streaming detection with selection predicates and online filtering.

Scenario (motivated by the paper's severe-weather / anomaly-detection use
cases): a stream of uncertain measurement tuples arrives; for each tuple an
expensive UDF scores it, and only tuples whose score falls in an alert range
with sufficient probability should be reported.  Online filtering lets both
the Monte-Carlo baseline and the GP approach discard uninteresting tuples
early, and the GP approach additionally amortises UDF evaluations across the
stream.

Run with:  python examples/streaming_filtering.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    AccuracyRequirement,
    SelectionPredicate,
    monte_carlo_with_filter,
)
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.udf import reference_function
from repro.workloads import input_stream, workload_for_udf


def main() -> None:
    # An expensive, bumpy scoring function (1 ms per call, simulated cost).
    udf = reference_function("F4", simulated_eval_time=1e-3)
    requirement = AccuracyRequirement(epsilon=0.1, delta=0.05)

    # Alert when the score is likely to exceed 2.0.
    predicate = SelectionPredicate(low=2.0, high=1e9, threshold=0.2)

    spec = workload_for_udf(udf)
    stream = list(input_stream(spec, 12, random_state=3))

    # --- GP approach with online filtering -------------------------------------
    # Each tuple is tuned to the error budget, then tested on the envelope it
    # committed; the model keeps learning from dropped tuples too.
    engine = UDFExecutionEngine("gp", requirement=requirement, random_state=0)
    outcomes = engine.compute_with_plan(udf, stream, ExecutionPlan(), predicate=predicate)
    gp_alerts = 0
    gp_charged = 0.0
    for i, outcome in enumerate(outcomes):
        gp_charged += outcome.charged_time
        status = "dropped " if outcome.dropped else f"ALERT p={outcome.existence_probability:.2f}"
        gp_alerts += int(not outcome.dropped)
        print(f"  [GP ] tuple {i:2d}: {status}")
    print(f"  [GP ] alerts={gp_alerts}  charged time={gp_charged:.2f} s  "
          f"training points={engine.olgapro_for(udf).n_training}\n")

    # --- MC baseline with online filtering --------------------------------------
    udf_mc = reference_function("F4", simulated_eval_time=1e-3)
    mc_alerts = 0
    mc_charged = 0.0
    for i, tuple_dist in enumerate(stream):
        outcome = monte_carlo_with_filter(
            udf_mc, tuple_dist, predicate, requirement=requirement, random_state=i
        )
        mc_charged += outcome.charged_time
        mc_alerts += int(not outcome.dropped)
    print(f"  [MC ] alerts={mc_alerts}  charged time={mc_charged:.2f} s")

    speedup = mc_charged / max(gp_charged, 1e-9)
    print(f"\n  GP speedup over MC on this stream: {speedup:.1f}x")
    if gp_alerts != mc_alerts:
        print("  note: alert sets may differ slightly near the probability threshold")


if __name__ == "__main__":
    main()
