"""Hiding a slow UDF's latency *across* tuples with the pipeline scheduler.

Scenario: the UDF is a genuinely slow black box (a remote service or an
expensive simulation, modelled by a
:class:`~repro.udf.synthetic.RealCostFunction` whose every call occupies
10 ms of wall-clock) and the per-tuple refinement window is kept small —
the call-frugal configuration, where speculative overshoot per window is
at most one evaluation.  PR 3's within-tuple overlap
(``async_inflight``) still serialises the window rounds of consecutive
tuples; ``pipeline_lookahead`` additionally overlaps the tail of each
tuple's refinement with the sampling, first inference and prefetched first
windows of the next few tuples.

The example demonstrates both halves of the scheduler's contract:

* ``pipeline_lookahead=1`` is the serial batched path, bit for bit, and
* at ``pipeline_lookahead=4`` the committed results are bit-identical to
  the within-tuple async run — speculation changes *when* evaluations
  happen and who pays for them, never the answer — while the wall-clock
  drops.

Run with:  python examples/pipelined_refinement.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.accuracy import AccuracyRequirement
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.rng import as_generator
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf

#: Real per-call latency of the "external" black box (seconds).
EVAL_TIME = 1e-2

#: Within-tuple refinement window (kept small: the call-frugal regime).
WINDOW = 4

N_TUPLES = 8


def make_run():
    """A fresh (udf, engine, tuple stream) triple with fixed seeds."""
    udf = reference_function("F1", real_eval_time=EVAL_TIME)
    engine = UDFExecutionEngine(
        strategy="gp",
        requirement=AccuracyRequirement(epsilon=0.15, delta=0.05),
        random_state=7,
        n_samples=120,
    )
    dists = list(
        input_stream(workload_for_udf(udf), N_TUPLES, random_state=as_generator(3))
    )
    return udf, engine, dists


def main() -> None:
    # --- serial baseline ------------------------------------------------------
    udf, engine, dists = make_run()
    started = time.perf_counter()
    serial_outputs = ExecutionPlan(batch_size=N_TUPLES).resolve(engine).compute_batch(udf, dists)
    serial_wall = time.perf_counter() - started
    print("serial batched refinement")
    print(f"  wall-clock             : {serial_wall:.2f} s")
    print(f"  UDF evaluations        : {udf.call_count}")

    # --- pipeline_lookahead=1: must be the serial path, bit for bit ----------
    udf, engine, dists = make_run()
    identity_outputs = ExecutionPlan(
        batch_size=N_TUPLES, pipeline_lookahead=1
    ).resolve(engine).compute_batch(udf, dists)
    for a, b in zip(serial_outputs, identity_outputs):
        assert np.array_equal(a.distribution.samples, b.distribution.samples)
        assert a.error_bound == b.error_bound
    print("\npipeline_lookahead=1")
    print("  output                 : bit-identical to the serial run (asserted)")

    # --- within-tuple overlap only (PR 3) ------------------------------------
    udf, engine, dists = make_run()
    started = time.perf_counter()
    async_outputs = ExecutionPlan(
        batch_size=N_TUPLES, async_inflight=WINDOW
    ).resolve(engine).compute_batch(udf, dists)
    async_wall = time.perf_counter() - started
    print(f"\nasync_inflight={WINDOW} (within-tuple overlap only)")
    print(f"  wall-clock             : {async_wall:.2f} s")
    print(f"  UDF evaluations        : {udf.call_count}")

    # --- cross-tuple pipelining on top ----------------------------------------
    udf, engine, dists = make_run()
    executor = ExecutionPlan(
        batch_size=N_TUPLES, pipeline_lookahead=4, async_inflight=WINDOW
    ).resolve(engine)
    started = time.perf_counter()
    pipelined_outputs = executor.compute_batch(udf, dists)
    pipelined_wall = time.perf_counter() - started
    for a, b in zip(async_outputs, pipelined_outputs):
        assert np.array_equal(a.distribution.samples, b.distribution.samples)
        assert a.error_bound == b.error_bound
    print(f"\npipeline_lookahead=4, async_inflight={WINDOW}")
    print(f"  wall-clock             : {pipelined_wall:.2f} s")
    print(f"  UDF evaluations        : {udf.call_count} "
          "(prefetches that no tuple consumed are paid for and discarded)")
    print(f"  speculative prefetches : {executor.last_speculative_calls} "
          f"({executor.last_wasted_calls} wasted)")
    print("  output                 : bit-identical to the async run (asserted)")
    print(f"  speedup vs async       : {async_wall / pipelined_wall:.2f}x")
    print(f"  speedup vs serial      : {serial_wall / pipelined_wall:.2f}x")


if __name__ == "__main__":
    main()
