"""Profile-driven auto-planner benchmark: ``plan="auto"`` vs hand-tuning.

Measures what the UDF catalog's declared cost profiles buy: a query over a
declared high-latency async UDF service submitted with ``plan="auto"``
(:meth:`~repro.engine.plan.ExecutionPlan.auto`) against the same query on
the *naive default* plan — the serial batched path a caller gets when they
configure nothing.  On a latency-bound workload the auto-planner reads the
profile, picks the asyncio transport with a deep in-flight window, and
overlaps the awaited latency the naive plan pays one call at a time.

Protocol: the same tuple stream (identical seeds, cold model) runs two
ways — the naive default plan and ``plan="auto"``.  The table reports
wall-clock, the UDF calls each run paid (``udf.call_count``, so a
window's discarded tail counts) and the speedup versus the naive run,
which rides the ordinary label-overridable perf gate.  ``plan="auto"`` is
the plan it resolves to, spelled out, by construction;
``tests/test_auto_plan.py`` pins that identity bit for bit.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentTable, timed_run
from repro.core.accuracy import AccuracyRequirement
from repro.engine.plan import ExecutionPlan
from repro.udf.synthetic import async_service_udf


def auto_plan(
    function_name: str = "F4",
    n_tuples: int = 8,
    batch_size: int = 32,
    service_latency: float = 2e-2,
    service_jitter: float = 0.0,
    epsilon: float = 0.12,
    n_samples: int | None = 120,
    trials: int = 1,
    random_state=7,
    stream_seed: int = 3,
) -> ExperimentTable:
    """Auto-planned vs naive-default wall-clock on a declared-latency UDF.

    The black box is :func:`~repro.udf.synthetic.async_service_udf` with a
    declared per-request ``service_latency``, so its derived
    :class:`~repro.udf.catalog.UDFProfile` is slow and async-capable and
    the auto-planner selects the overlapped asyncio configuration.  The
    naive baseline is ``ExecutionPlan(batch_size=batch_size)`` — the
    serial batched path of an unconfigured caller.  ``trials`` repeats
    each timed run and keeps the fastest, the usual guard against
    scheduler noise.
    """
    requirement = AccuracyRequirement(epsilon=epsilon, delta=0.05)

    def make_udf():
        return async_service_udf(
            function_name, latency=service_latency, jitter=service_jitter,
            random_state=random_state,
        )

    def run(plan):
        return timed_run(
            make_udf, plan, n_tuples=n_tuples, stream_seed=stream_seed, trials=trials,
            strategy="gp", requirement=requirement, random_state=random_state,
            n_samples=n_samples,
        )

    probe = make_udf()
    table = ExperimentTable(
        experiment_id="auto_plan",
        paper_artifact="profile-driven auto-planner (beyond the paper)",
        description=(
            "Naive default plan vs catalog-profile auto-planning on a "
            f"declared-latency async UDF service ({probe.name}, "
            f"{service_latency * 1e3:g} ms/request, n_tuples={n_tuples}; "
            f"auto resolves to {ExecutionPlan.auto(probe, relation_size=n_tuples)!r})"
        ),
    )
    naive = run(ExecutionPlan(batch_size=batch_size))
    for mode, result in (("naive", naive), ("auto", run("auto"))):
        table.add_row(
            mode=mode,
            n_tuples=n_tuples,
            wall_ms=float(result.wall_s * 1000.0),
            udf_calls=result.udf_calls,
            speedup=float(naive.wall_s / max(result.wall_s, 1e-12)),
        )
    return table


def auto_plan_report(table: ExperimentTable) -> dict:
    """JSON-ready summary of an :func:`auto_plan` run.

    ``speedup`` is the auto-planned run's headline ratio over the naive
    default plan (the perf-gate metric); the table description records
    what ``auto`` chose.
    """
    auto_row = next((row for row in table.rows if row["mode"] == "auto"), None)
    return {
        "experiment_id": table.experiment_id,
        "description": table.description,
        "rows": list(table.rows),
        "speedup": float(auto_row["speedup"]) if auto_row else None,
    }
