"""Serving a natively-async UDF over the event-loop evaluation transport.

Scenario: the UDF lives behind an HTTP-style service whose client is a
coroutine — every evaluation *awaits* a round trip instead of blocking a
thread.  :func:`repro.udf.synthetic.async_service_udf` simulates exactly
that (an :class:`~repro.udf.base.AsyncUDF` whose each request awaits 10 ms)
and the ``transport="asyncio"`` knob plugs it into the same overlapped
refinement machinery the thread-pool transport uses: a window of
``async_inflight`` requests costs roughly one round trip, held in flight on
a single event-loop thread.

The example also demonstrates the determinism half of the contract: at
``async_inflight=1`` the asyncio-transport executor *is* the serial
batched path, bit for bit — asserted below — and it shows the modern
``plan=`` spelling of the configuration next to the executor-level one.

Run with:  python examples/asyncio_udf_service.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.accuracy import AccuracyRequirement
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.rng import as_generator
from repro.udf.synthetic import async_service_udf
from repro.workloads.generators import input_stream, workload_for_udf

#: Simulated round-trip latency of the "remote service" (seconds).
LATENCY = 1e-2

N_TUPLES = 6


def make_run():
    """A fresh (service udf, engine, tuple stream) triple with fixed seeds."""
    udf = async_service_udf("F4", latency=LATENCY)
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
    # --- serial baseline: the same async UDF, one awaited request at a time --
    udf, engine, dists = make_run()
    started = time.perf_counter()
    serial_outputs = ExecutionPlan(batch_size=N_TUPLES).resolve(engine).compute_batch(udf, dists)
    serial_wall = time.perf_counter() - started
    print("serial batched refinement (blocking bridge of the async UDF)")
    print(f"  wall-clock             : {serial_wall:.2f} s")
    print(f"  UDF requests           : {udf.call_count}")

    # --- asyncio transport, inflight=1: the serial path, bit for bit ---------
    udf, engine, dists = make_run()
    executor = ExecutionPlan(
        batch_size=N_TUPLES, async_inflight=1, transport="asyncio"
    ).resolve(engine)
    identity_outputs = executor.compute_batch(udf, dists)
    for a, b in zip(serial_outputs, identity_outputs):
        assert np.array_equal(a.distribution.samples, b.distribution.samples)
        assert a.error_bound == b.error_bound
    print("\nasyncio transport, async_inflight=1")
    print("  output                 : bit-identical to the serial run (asserted)")

    # --- asyncio transport, inflight=8: overlap the awaited round trips ------
    udf, engine, dists = make_run()
    plan = ExecutionPlan(batch_size=N_TUPLES, async_inflight=8, transport="asyncio")
    started = time.perf_counter()
    async_outputs = engine.compute_with_plan(udf, dists, plan)
    async_wall = time.perf_counter() - started
    print(f"\nasyncio transport, {plan.describe()}")
    print(f"  wall-clock             : {async_wall:.2f} s")
    print(f"  UDF requests           : {udf.call_count} "
          "(speculative windows may evaluate a few extra points)")
    print(f"  peak in-flight requests: {udf.max_in_flight}")
    print(f"  speedup vs serial      : {serial_wall / async_wall:.2f}x")

    # Every output still carries its rigorous claimed error bound; only the
    # transport the refinement windows rode has changed.
    worst = max(output.error_bound for output in async_outputs)
    print(f"  worst claimed bound    : {worst:.3f}")


if __name__ == "__main__":
    main()
