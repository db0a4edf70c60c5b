"""Hiding a slow external UDF's latency with asynchronous refinement.

Scenario: the UDF is a genuinely slow black box — think a remote service or
an expensive simulation, modelled here by a
:class:`~repro.udf.synthetic.RealCostFunction` whose every call *occupies*
10 ms of wall-clock.  The serial refinement loop waits out those calls one
at a time; with ``async_inflight=8`` up to eight of them run concurrently
while the engine keeps doing GP work, so the same query finishes in a
fraction of the time.

The example also demonstrates the determinism half of the contract: at
``async_inflight=1`` the asynchronous executor *is* the serial batched
path, bit for bit — asserted below.

Run with:  python examples/async_udf_overlap.py
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

N_TUPLES = 6


def make_run():
    """A fresh (udf, engine, tuple stream) triple with fixed seeds."""
    udf = reference_function("F4", real_eval_time=EVAL_TIME)
    engine = UDFExecutionEngine(
        strategy="gp",
        requirement=AccuracyRequirement(epsilon=0.12, delta=0.05),
        random_state=7,
        n_samples=120,
    )
    dists = list(
        input_stream(workload_for_udf(udf), N_TUPLES, random_state=as_generator(3))
    )
    return udf, engine, dists


def main() -> None:
    # --- serial baseline: the batched pipeline, one UDF call at a time -------
    udf, engine, dists = make_run()
    started = time.perf_counter()
    serial_outputs = ExecutionPlan(batch_size=N_TUPLES).resolve(engine).compute_batch(udf, dists)
    serial_wall = time.perf_counter() - started
    print("serial batched refinement")
    print(f"  wall-clock             : {serial_wall:.2f} s")
    print(f"  UDF evaluations        : {udf.call_count}")

    # --- async_inflight=1: must be the serial path, bit for bit --------------
    udf, engine, dists = make_run()
    executor = ExecutionPlan(batch_size=N_TUPLES, async_inflight=1).resolve(engine)
    identity_outputs = executor.compute_batch(udf, dists)
    for a, b in zip(serial_outputs, identity_outputs):
        assert np.array_equal(a.distribution.samples, b.distribution.samples)
        assert a.error_bound == b.error_bound
    print("\nasync_inflight=1")
    print("  output                 : bit-identical to the serial run (asserted)")

    # --- async_inflight=8: overlap the black-box calls ------------------------
    udf, engine, dists = make_run()
    executor = ExecutionPlan(batch_size=N_TUPLES, async_inflight=8).resolve(engine)
    started = time.perf_counter()
    async_outputs = executor.compute_batch(udf, dists)
    async_wall = time.perf_counter() - started
    print("\nasync_inflight=8")
    print(f"  wall-clock             : {async_wall:.2f} s")
    print(f"  UDF evaluations        : {udf.call_count} "
          "(speculative windows may evaluate a few extra points)")
    print(f"  peak in-flight calls   : {udf.max_in_flight}")
    print(f"  speedup vs serial      : {serial_wall / async_wall:.2f}x")

    # Every output still carries its rigorous claimed error bound; the
    # refinement trajectory just absorbed training points in overlapped
    # windows instead of one at a time.  (Tuples that hit the per-tuple
    # point cap report an honest, larger bound — in both modes.)
    worst = max(output.error_bound for output in async_outputs)
    print(f"  worst claimed bound    : {worst:.3f}")


if __name__ == "__main__":
    main()
