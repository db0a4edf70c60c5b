"""Fault-injection benchmark: determinism under retries (CI smoke gate).

The robustness contract of the retry machinery
(:class:`~repro.udf.retry.RetryPolicy`, :mod:`repro.udf.faults`) is that a
recovered run is indistinguishable from a lucky one: a retried evaluation
re-issues the *same* input point to a deterministic black box, failed
attempts charge nothing, and Monte-Carlo sampling is the only random-stream
consumer — so a run that survived injected transient faults must be
**bit-identical** to the fault-free run under the same seed.

Protocol: the same tuple stream (identical seeds, cold model) runs twice
per execution mode — once fault-free, once with a
:class:`~repro.udf.faults.FaultSchedule` injecting
:class:`~repro.exceptions.TransientUDFError` at a configured rate from a
seeded counter-based generator (replayable, no wall-clock randomness) —
and the outputs are compared sample-for-sample.  The sweep covers the
three transports of the unified runtime: the serial batched path, the
thread-pool overlapped path, and the asyncio-native path (whose black box
is a natively-async simulated service wrapped by
:class:`~repro.udf.faults.FaultInjectingAsyncUDF`).

The schedule caps consecutive failures per point at ``max_attempts - 1``
so every streak is recoverable by construction; without the cap a streak
of ``max_attempts`` failures (probability ``rate ** max_attempts`` per
attempt chain) would quarantine a tuple and legitimately diverge — that
regime is exercised by the quarantine tests, not this identity gate.

The ``fault_injection`` smoke entry enforces ``identical == True`` for
every mode **non-overridably** (unlike the perf gates, there is no
``REPRO_PERF_OVERRIDE`` escape hatch: a bit-identity break under retries
is a correctness bug, never noise).
"""

from __future__ import annotations

from repro.bench.harness import ExperimentTable, outputs_identical, timed_run
from repro.core.accuracy import AccuracyRequirement
from repro.engine.plan import ExecutionPlan
from repro.udf.faults import FaultInjectingAsyncUDF, FaultInjectingUDF, FaultSchedule
from repro.udf.retry import RetryPolicy
from repro.udf.synthetic import async_service_udf, reference_function

#: The execution modes the identity gate sweeps (unified-runtime transports).
FAULT_MODES: tuple[str, ...] = ("serial", "threads", "asyncio")


def fault_injection(
    function_name: str = "F4",
    modes: tuple[str, ...] = FAULT_MODES,
    fault_rate: float = 0.3,
    fault_seed: int = 1234,
    max_attempts: int = 3,
    n_tuples: int = 6,
    batch_size: int = 6,
    inflight: int = 4,
    service_latency: float = 5e-3,
    epsilon: float = 0.12,
    n_samples: int | None = 120,
    random_state=7,
    stream_seed: int = 3,
) -> ExperimentTable:
    """Bit-identity-under-injected-faults table across execution modes.

    Each mode contributes one row comparing the faulty run (transient
    faults injected at ``fault_rate`` from seed ``fault_seed``, retried up
    to ``max_attempts`` times per evaluation) against the fault-free run
    of the very same configuration: ``identical`` is the sample-for-sample
    output comparison, ``calls_match`` checks that failed attempts charged
    nothing (the UDF call counters agree), and ``injected_failures`` /
    ``attempts_seen`` record how much chaos the schedule actually dealt —
    a zero there would make the gate vacuous, so the smoke driver checks
    it too.
    """
    table = ExperimentTable(
        experiment_id="fault_injection",
        paper_artifact="fault-tolerant evaluation (beyond the paper)",
        description=(
            "Fault-free vs transient-fault-injected runs under deterministic "
            f"retries ({function_name}, rate={fault_rate:g}, "
            f"max_attempts={max_attempts}, batch_size={batch_size})"
        ),
    )
    requirement = AccuracyRequirement(epsilon=epsilon, delta=0.05)
    policy = RetryPolicy(max_attempts=max_attempts, backoff_base=0.0)

    def run(mode: str, schedule: FaultSchedule | None):
        """One full run of ``mode``, faults injected from ``schedule`` if given."""
        if mode == "asyncio":
            def make_udf():
                inner = async_service_udf(
                    function_name, latency=service_latency, random_state=random_state
                )
                return inner if schedule is None else FaultInjectingAsyncUDF(inner, schedule)
        else:
            def make_udf():
                inner = reference_function(function_name)
                return inner if schedule is None else FaultInjectingUDF(inner, schedule)
        window = {} if mode == "serial" else {"async_inflight": inflight, "transport": mode}
        return timed_run(
            make_udf, ExecutionPlan(batch_size=batch_size, retry=policy, **window),
            n_tuples=n_tuples, stream_seed=stream_seed,
            strategy="gp", requirement=requirement, random_state=random_state,
            n_samples=n_samples,
        )

    for mode in modes:
        clean = run(mode, None)
        # Cap consecutive failures below the attempt budget so every
        # injected streak is recoverable — the precondition of the
        # bit-identity contract this experiment gates.
        schedule = FaultSchedule(
            fault_rate, seed=fault_seed, max_failures_per_point=max_attempts - 1
        )
        faulty = run(mode, schedule)
        table.add_row(
            mode=mode,
            n_tuples=n_tuples,
            fault_rate=fault_rate,
            max_attempts=max_attempts,
            injected_failures=schedule.injected_failures,
            attempts_seen=schedule.attempts_seen,
            identical=outputs_identical(clean.outputs, faulty.outputs),
            calls_match=bool(clean.udf_calls == faulty.udf_calls),
            udf_calls=faulty.udf_calls,
        )
    return table


def faults_report(table: ExperimentTable) -> dict:
    """JSON-ready summary of a :func:`fault_injection` run.

    ``identical`` maps ``mode -> bool`` (the non-overridable smoke gate),
    ``calls_match`` the cost-accounting half of the same contract,
    ``injected`` maps ``mode -> injected fault count``, and ``fired`` maps
    ``mode -> whether any fault fired``, so the smoke can reject a vacuous
    run.
    """
    by_mode = {str(row["mode"]): row for row in table.rows}
    return {
        "experiment_id": table.experiment_id,
        "description": table.description,
        "rows": list(table.rows),
        "identical": {mode: bool(row["identical"]) for mode, row in by_mode.items()},
        "calls_match": {mode: bool(row["calls_match"]) for mode, row in by_mode.items()},
        "injected": {mode: int(row["injected_failures"]) for mode, row in by_mode.items()},
        "fired": {mode: row["injected_failures"] > 0 for mode, row in by_mode.items()},
    }

