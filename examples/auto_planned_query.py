"""Letting the UDF catalog plan the query: ``plan="auto"``.

Scenario: the caller knows *what* the UDF costs — it is a remote service
with a ~20 ms round trip — but does not want to hand-tune batching,
overlap windows and transports.  That cost is exactly the input of the
paper's cost model (per-call evaluation time of the opaque ``f``), so
each UDF declares it as a :class:`~repro.udf.catalog.UDFProfile` and
``plan="auto"`` turns the declaration into an :class:`ExecutionPlan`.

Three things are demonstrated below:

* profiles are auto-derived (or declared with overrides) and kept in a
  :class:`~repro.udf.catalog.UDFCatalog` — the astro case-study UDFs
  ship pre-profiled in :func:`~repro.udf.catalog.default_catalog`;
* the planner only *selects* a plan, never changes semantics: the
  ``plan="auto"`` run is asserted bit-identical to explicitly running
  the plan :meth:`ExecutionPlan.auto` resolves to;
* catalogued UDFs resolve by name at the query layer —
  ``apply_udf("galage", ...)`` — so the whole configuration surface of
  a query can be two strings.

Run with:  python examples/auto_planned_query.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.accuracy import AccuracyRequirement
from repro.engine import (
    ExecutionPlan,
    Query,
    UDFExecutionEngine,
    generate_galaxy_relation,
)
from repro.rng import as_generator
from repro.udf.catalog import default_catalog
from repro.udf.synthetic import async_service_udf
from repro.workloads.generators import input_stream, workload_for_udf

#: Simulated round-trip latency of the "remote service" UDF (seconds).
LATENCY = 2e-2

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
    # --- the catalog: declared cost profiles ---------------------------------
    catalog = default_catalog()
    print("default catalog (astro case-study UDFs, pre-profiled):")
    for profile in catalog.profiles():
        print(f"  {profile.describe()}")

    udf, _, _ = make_run()
    print("\nderived profile of the 20 ms service UDF:")
    print(f"  {catalog.profile_for(udf).describe()}")

    # --- what the planner resolves for it ------------------------------------
    auto_plan = ExecutionPlan.auto(udf, relation_size=N_TUPLES)
    print(f"\nExecutionPlan.auto resolves: {auto_plan.describe()}")

    # --- naive default plan vs plan="auto" -----------------------------------
    udf, engine, dists = make_run()
    started = time.perf_counter()
    naive_outputs = engine.compute_with_plan(udf, dists, ExecutionPlan()).outputs
    naive_wall = time.perf_counter() - started

    udf, engine, dists = make_run()
    started = time.perf_counter()
    auto_result = engine.compute_with_plan(udf, dists, plan="auto")
    auto_wall = time.perf_counter() - started

    # The planner selected a plan; the explicit spelling of that same plan
    # must produce the same bits.
    udf, engine, dists = make_run()
    explicit = engine.compute_with_plan(
        udf, dists, ExecutionPlan.auto(udf, len(dists))
    )
    for a, b in zip(auto_result.outputs, explicit.outputs):
        assert np.array_equal(a.distribution.samples, b.distribution.samples)
        assert a.error_bound == b.error_bound

    print("\nnaive default plan (per-tuple, serial)")
    print(f"  wall-clock        : {naive_wall:.2f} s")
    print(f'\nplan="auto" ({auto_result.plan.describe()})')
    print(f"  wall-clock        : {auto_wall:.2f} s")
    print(f"  speedup vs naive  : {naive_wall / auto_wall:.2f}x")
    print("  output            : bit-identical to the explicit plan (asserted)")
    worst = max(output.error_bound for output in auto_result.outputs)
    print(f"  worst claimed bound: {worst:.3f}  (same (eps, delta) guarantee)")
    assert len(naive_outputs) == len(auto_result.outputs)

    # --- name-based query over the catalog -----------------------------------
    galaxy = generate_galaxy_relation(4, random_state=11)
    engine = UDFExecutionEngine(
        strategy="gp",
        requirement=AccuracyRequirement(epsilon=0.15, delta=0.05),
        random_state=5,
        n_samples=120,
    )
    result = (
        Query(galaxy)
        .apply_udf("galage", ["redshift"], alias="age", plan="auto")
        .project(["objID", "age"])
        .run(engine)
    )
    print('\nQuery(...).apply_udf("galage", ["redshift"], plan="auto"):')
    for row in result:
        print(
            f"  objID={row['objID']}  age={float(np.mean(row['age'].samples)):.2f} Gyr "
            f"(bound {row.annotations['age_error_bound']:.3f})"
        )


if __name__ == "__main__":
    main()
