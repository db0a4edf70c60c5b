"""Asynchronous UDF-overlap benchmark: in-flight window sweep (CI smoke).

Measures the wall-clock effect of the refinement *window*
(:mod:`repro.engine.async_exec`) on a workload
whose black-box calls carry **real** per-call latency
(:class:`~repro.udf.synthetic.RealCostFunction`): the regime where the
serial refinement loop spends most of its time waiting on one UDF call at a
time, and a window of ``async_inflight`` concurrent calls costs roughly one
latency instead of ``async_inflight``.

Protocol: the same tuple stream (identical seeds, cold model — a cold model
spends its time in refinement, which is the loop being overlapped) is
pushed through the chunk executor (:class:`~repro.engine.batch
.BatchExecutor`) at window 1 and at each in-flight bound.  The
table reports wall-clock, UDF calls and the speedup versus the serial
batched run.  A window of one builds the serial executor itself, so the
sweep leaves it out; its bit-identity with the serial run is pinned by
``tests/test_async_exec.py`` and ``tests/test_transport.py``.

A second experiment, :func:`udf_transport`, sweeps the *transport* axis of
the same protocol: the black box is a natively-async simulated-latency
service (:func:`~repro.udf.synthetic.async_service_udf`) and each row runs
the window over a named :mod:`~repro.engine.transport` — the thread pool
versus the event loop — against the serial batched baseline on the very
same UDF.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentTable, timed_run
from repro.core.accuracy import AccuracyRequirement
from repro.engine.plan import ExecutionPlan
from repro.udf.synthetic import async_service_udf, reference_function


def udf_overlap(
    function_name: str = "F4",
    inflight_list: tuple[int, ...] = (2, 4, 8),
    n_tuples: int = 8,
    batch_size: int = 8,
    real_eval_time: float = 2e-2,
    real_eval_jitter: float = 0.0,
    epsilon: float = 0.12,
    n_samples: int | None = 120,
    trials: int = 1,
    random_state=7,
    stream_seed: int = 3,
    transport: str = "threads",
) -> ExperimentTable:
    """Speedup-versus-``async_inflight`` table for overlapped refinement.

    ``real_eval_time`` is the black box's genuine per-call latency;
    ``real_eval_jitter`` optionally varies it per point so concurrent calls
    complete out of submission order (the results must not change — see
    ``tests/test_async_exec.py``).  ``trials`` repeats each timed run and
    keeps the fastest, the usual guard against scheduler noise.
    ``transport`` names the evaluation transport the windows ride
    (``"threads"`` by default; this experiment's blocking
    :class:`~repro.udf.synthetic.RealCostFunction` workload cannot ride
    ``"asyncio"`` — that axis is :func:`udf_transport`'s).
    """
    table = ExperimentTable(
        experiment_id="udf_overlap",
        paper_artifact="async overlapped UDF evaluation (beyond the paper)",
        description=(
            "Serial batched vs async-overlapped refinement wall-clock on the "
            f"real-cost workload ({function_name}, {real_eval_time * 1e3:g} ms/call, "
            f"batch_size={batch_size}, transport={transport})"
        ),
    )
    requirement = AccuracyRequirement(epsilon=epsilon, delta=0.05)

    def run(inflight: int | None):
        """One full run; ``inflight=None`` is the serial batched baseline."""
        return timed_run(
            lambda: reference_function(
                function_name,
                real_eval_time=real_eval_time,
                real_eval_jitter=real_eval_jitter,
            ),
            ExecutionPlan(batch_size=batch_size, async_inflight=inflight, transport=transport),
            n_tuples=n_tuples, stream_seed=stream_seed, trials=trials,
            strategy="gp", requirement=requirement, random_state=random_state,
            n_samples=n_samples,
        )

    serial = run(None)
    table.add_row(
        mode="serial",
        async_inflight=1,
        n_tuples=n_tuples,
        wall_ms=float(serial.wall_s * 1000.0),
        udf_calls=serial.udf_calls,
        speedup=1.0,
    )
    for inflight in inflight_list:
        windowed = run(inflight)
        table.add_row(
            mode="async",
            async_inflight=inflight,
            n_tuples=n_tuples,
            wall_ms=float(windowed.wall_s * 1000.0),
            udf_calls=windowed.udf_calls,
            speedup=float(serial.wall_s / max(windowed.wall_s, 1e-12)),
        )
    return table


def udf_transport(
    function_name: str = "F4",
    transports: tuple[str, ...] = ("threads", "asyncio"),
    inflight_list: tuple[int, ...] = (8,),
    n_tuples: int = 8,
    batch_size: int = 8,
    service_latency: float = 2e-2,
    service_jitter: float = 0.0,
    epsilon: float = 0.12,
    n_samples: int | None = 120,
    trials: int = 1,
    random_state=7,
    stream_seed: int = 3,
) -> ExperimentTable:
    """Speedup-versus-transport table on a simulated async UDF service.

    The black box is :func:`~repro.udf.synthetic.async_service_udf`: a
    natively-async UDF whose every request awaits ``service_latency``
    seconds — the regime the ROADMAP's event-loop transport item targets.
    The *same* UDF runs the serial batched baseline (its blocking bridge
    pays the latency one call at a time) and then, per transport and
    in-flight bound, the overlapped refinement pipeline.

    The event-loop transport's deeper windows clear ≥2× wall-clock at
    ``async_inflight=8`` on the 20 ms/call service (the speedup is
    *recorded* in the smoke artifact and tracked PR to PR, not hard-gated —
    matching how the other overlap speedups are handled).  A window of one
    opens no transport session, so it is the serial run and the sweep
    leaves it out (``tests/test_transport.py`` pins that identity).
    """
    table = ExperimentTable(
        experiment_id="udf_transport",
        paper_artifact="pluggable UDF evaluation transports (beyond the paper)",
        description=(
            "Serial batched vs transport-overlapped refinement wall-clock on a "
            f"simulated async UDF service ({function_name}, "
            f"{service_latency * 1e3:g} ms/request, batch_size={batch_size})"
        ),
    )
    requirement = AccuracyRequirement(epsilon=epsilon, delta=0.05)

    def run(plan: ExecutionPlan):
        return timed_run(
            lambda: async_service_udf(
                function_name, latency=service_latency, jitter=service_jitter,
                random_state=random_state,
            ),
            plan, n_tuples=n_tuples, stream_seed=stream_seed, trials=trials,
            strategy="gp", requirement=requirement, random_state=random_state,
            n_samples=n_samples,
        )

    serial = run(ExecutionPlan(batch_size=batch_size))
    table.add_row(
        transport="serial",
        async_inflight=1,
        n_tuples=n_tuples,
        wall_ms=float(serial.wall_s * 1000.0),
        udf_calls=serial.udf_calls,
        speedup=1.0,
    )
    for transport in transports:
        for inflight in inflight_list:
            windowed = run(ExecutionPlan(
                batch_size=batch_size, async_inflight=inflight, transport=transport
            ))
            table.add_row(
                transport=transport,
                async_inflight=inflight,
                n_tuples=n_tuples,
                wall_ms=float(windowed.wall_s * 1000.0),
                udf_calls=windowed.udf_calls,
                speedup=float(serial.wall_s / max(windowed.wall_s, 1e-12)),
            )
    return table


def transport_report(table: ExperimentTable) -> dict:
    """JSON-ready summary of a :func:`udf_transport` run.

    ``speedup`` maps ``transport -> {async_inflight: speedup}``;
    ``speedup_at_8`` pulls out each transport's headline in-flight-8 number
    (falling back to its largest measured window).
    """
    speedups: dict[str, dict[int, float]] = {}
    for row in table.rows:
        transport = str(row["transport"])
        if transport != "serial":
            speedups.setdefault(transport, {})[int(row["async_inflight"])] = float(row["speedup"])
    headline: dict[str, dict] = {}
    for transport, sweep in speedups.items():
        target = 8 if 8 in sweep else max(sweep)
        headline[transport] = {"async_inflight": target, "speedup": sweep[target]}
    return {
        "experiment_id": table.experiment_id,
        "description": table.description,
        "rows": list(table.rows),
        "speedup": {
            transport: {str(k): v for k, v in sorted(sweep.items())}
            for transport, sweep in sorted(speedups.items())
        },
        "speedup_at_8": headline,
    }


def async_report(table: ExperimentTable) -> dict:
    """JSON-ready summary of a :func:`udf_overlap` run.

    ``speedup`` maps ``async_inflight -> speedup``; ``speedup_at_8`` pulls
    out the headline in-flight-8 number tracked by the CI smoke artifact
    (falling back to the largest measured window when 8 was not part of the
    sweep).
    """
    speedups = {
        int(row["async_inflight"]): float(row["speedup"])
        for row in table.rows
        if row["mode"] == "async"
    }
    headline = None
    if speedups:
        target = 8 if 8 in speedups else max(speedups)
        headline = {"async_inflight": target, "speedup": speedups[target]}
    return {
        "experiment_id": table.experiment_id,
        "description": table.description,
        "rows": list(table.rows),
        "speedup": {str(k): v for k, v in sorted(speedups.items())},
        "speedup_at_8": headline,
    }
