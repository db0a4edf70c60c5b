"""Batched versus per-tuple execution benchmark (the CI smoke workload).

Measures the wall-clock effect of the batched execution pipeline on the
synthetic eval-time workload: the same stream of uncertain tuples is pushed
through :meth:`~repro.engine.executor.UDFExecutionEngine.compute` one tuple
at a time and through :class:`~repro.engine.batch.BatchExecutor` in chunks,
with identical seeds (so both paths do identical numerical work — see
``tests/test_engine_batch.py``).  The table reports the per-mode wall-clock,
the batched pipeline's per-phase split (sampling / inference / refinement),
and the speedup.

Timing protocol: both engines first process ``warmup_tuples`` tuples
per-tuple so the GP model reaches its steady state (the interesting regime —
a cold model spends its time on UDF refinement, which is identical work in
both modes), then the next ``n_tuples`` tuples are timed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import ExperimentTable, outputs_identical
from repro.core.accuracy import AccuracyRequirement
from repro.engine.executor import UDFExecutionEngine
from repro.engine.plan import ExecutionPlan
from repro.rng import as_generator
from repro.udf.synthetic import high_dimensional_function, reference_function
from repro.workloads.generators import input_stream, workload_for_udf


def batch_pipeline_speedup(
    function_name: str = "F1",
    strategies: tuple[str, ...] = ("gp", "mc"),
    n_tuples: int = 96,
    warmup_tuples: int = 48,
    batch_size: int = 32,
    epsilon: float = 0.12,
    eval_time: float = 1e-3,
    n_samples: int | None = 2000,
    band_method: str = "euler",
    dimension: int | None = None,
    trials: int = 2,
    random_state=11,
) -> ExperimentTable:
    """Wall-clock of per-tuple versus batched execution on one tuple stream.

    ``n_samples`` overrides the GP processors' per-tuple Monte-Carlo budget
    (the default emphasises the steady-state inference regime the batching
    targets; ``None`` keeps the (ε, δ)-derived count); the plain ``mc``
    strategy always uses the derived count, so its rows are unaffected by
    this knob.  Both modes run the same per-tuple draws and inference step;
    a chunk only shares its per-call dispatch, so at a
    small budget (dozens of numpy calls per tuple on tiny arrays) the
    ratio reads that dispatch share; ``band_method="bonferroni"``, the
    closed-form calibration, keeps the euler method's per-box root-finding
    (identical scalar work in both modes) from diluting it.
    ``dimension`` swaps the named reference function for
    :func:`~repro.udf.synthetic.high_dimensional_function` (1: a stream of
    1-D Gaussian inputs).
    ``trials`` repeats each timed run and keeps the fastest, the standard
    guard against scheduler noise on shared CI runners.  The batched rows
    record whether the run was bit-identical to the per-tuple reference
    (values, bounds and UDF charge counters).
    """
    workload = function_name if dimension is None else f"{dimension}-D"
    table = ExperimentTable(
        experiment_id="batch_pipeline",
        paper_artifact="batched execution pipeline (beyond the paper)",
        description=(
            "Per-tuple vs batched wall-clock on the synthetic eval-time workload "
            f"({workload}, batch_size={batch_size}, identical seeds)"
        ),
    )
    requirement = AccuracyRequirement(epsilon=epsilon, delta=0.05)
    processor_kwargs: dict = {"band_method": band_method}
    if n_samples is not None:
        processor_kwargs["n_samples"] = n_samples
    for strategy in strategies:
        timed: dict[str, float] = {}
        phases: dict[str, dict[str, float]] = {}
        outputs: dict[str, list] = {}
        for mode in ("per_tuple", "batched"):
            mode_times = []
            mode_phases: list[dict[str, float]] = []
            for _ in range(max(1, trials)):
                if dimension is None:
                    udf = reference_function(function_name, simulated_eval_time=eval_time)
                else:
                    udf = high_dimensional_function(dimension, simulated_eval_time=eval_time)
                engine = UDFExecutionEngine(
                    strategy=strategy,
                    requirement=requirement,
                    random_state=random_state,
                    **processor_kwargs,
                )
                stream_rng = as_generator(random_state)
                spec = workload_for_udf(udf)
                warmup = list(input_stream(spec, warmup_tuples, random_state=stream_rng))
                tuples = list(input_stream(spec, n_tuples, random_state=stream_rng))
                for dist in warmup:
                    engine.compute(udf, dist)
                if mode == "per_tuple":
                    started = time.perf_counter()
                    results = [engine.compute(udf, dist) for dist in tuples]
                    mode_times.append(time.perf_counter() - started)
                    mode_phases.append({})
                else:
                    executor = ExecutionPlan(batch_size=batch_size).resolve(engine)
                    started = time.perf_counter()
                    results = executor.compute_batch(udf, tuples)
                    mode_times.append(time.perf_counter() - started)
                    mode_phases.append(dict(executor.timings.seconds))
            outputs[mode] = results  # every trial is same-seed: any one represents the mode
            # Keep the wall-clock and the phase split from the same (fastest)
            # trial so the per-phase attribution stays consistent.
            fastest = min(range(len(mode_times)), key=mode_times.__getitem__)
            timed[mode] = mode_times[fastest]
            phases[mode] = mode_phases[fastest]
        speedup = timed["per_tuple"] / max(timed["batched"], 1e-12)
        identical = outputs_identical(outputs["per_tuple"], outputs["batched"], charges=True)
        for mode in ("per_tuple", "batched"):
            mode_phases = phases[mode]
            table.add_row(
                strategy=strategy,
                mode=mode,
                n_tuples=n_tuples,
                batch_size=batch_size if mode == "batched" else 1,
                wall_ms=float(timed[mode] * 1000.0),
                sampling_ms=float(mode_phases.get("sampling", float("nan")) * 1000.0),
                inference_ms=float(mode_phases.get("inference", float("nan")) * 1000.0),
                refinement_ms=float(mode_phases.get("refinement", float("nan")) * 1000.0),
                speedup=float(speedup) if mode == "batched" else 1.0,
                identical_to_per_tuple=bool(identical) if mode == "batched" else True,
            )
    return table


def smoke_report(table: ExperimentTable) -> dict:
    """JSON-ready summary of a :func:`batch_pipeline_speedup` run.

    This is what CI uploads as ``BENCH_smoke.json`` so the performance
    trajectory of the batched pipeline is tracked from PR to PR:
    ``speedup`` holds the perf-gated ratios, ``identical_to_per_tuple`` the
    non-overridable identity gate.
    """
    batched = [row for row in table.rows if row["mode"] == "batched"]
    speedups = {row["strategy"]: row["speedup"] for row in batched}
    return {
        "experiment_id": table.experiment_id,
        "description": table.description,
        "rows": [
            {k: (None if isinstance(v, float) and np.isnan(v) else v) for k, v in row.items()}
            for row in table.rows
        ],
        "speedup": speedups,
        "min_speedup": min(speedups.values()) if speedups else None,
        "identical_to_per_tuple": all(row["identical_to_per_tuple"] for row in batched),
    }
