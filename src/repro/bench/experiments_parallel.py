"""Process-pool scaling benchmark: workers sweep over sharded execution.

Measures the wall-clock effect of :class:`~repro.engine.parallel.ParallelExecutor`
on the synthetic eval-time workload.  Unlike the paper's Expt 5 — whose
per-call cost is *simulated* (charged to an accounting clock, invisible to
wall-clock) — the UDF here carries a **real** per-call cost
(:class:`~repro.udf.synthetic.RealCostFunction`): an expensive black box
whose evaluations occupy wall-clock that worker processes overlap.  That is
the regime process-pool sharding targets; a purely CPU-bound GP workload
scales with physical cores instead.

Protocol: the same tuple stream (identical seeds) is pushed through the
serial :class:`~repro.engine.batch.BatchExecutor` and through
``ParallelExecutor`` at each worker count, under the ``"discard"`` merge
policy so every worker count computes from the same model snapshot.  The
table reports wall-clock, UDF calls and the speedup versus the serial
batched run.

:func:`shared_learning` measures the complementary axis: the *total UDF
charge* of the fleet.  ``merge="shared"`` routes every shard through one
live :class:`~repro.core.shared_model.SharedEmulatorStore`, so the model
cost is paid once rather than once per shard — the headline
``udf_calls_ratio`` (shared fleet calls / serial calls) is measured
within one invocation and gated on every runner.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import ExperimentTable
from repro.core.accuracy import AccuracyRequirement
from repro.engine.executor import UDFExecutionEngine
from repro.engine.plan import ExecutionPlan
from repro.rng import as_generator
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf


def parallel_scaling(
    function_name: str = "F4",
    strategies: tuple[str, ...] = ("gp", "mc"),
    workers_list: tuple[int, ...] = (1, 2, 4, 8),
    n_tuples: int = 32,
    batch_size: int = 8,
    real_eval_time: float = 2e-3,
    epsilon: float = 0.15,
    n_samples: int | None = 300,
    merge: str = "discard",
    trials: int = 1,
    random_state=11,
    stream_seed: int = 2,
    shard_seed: int = 42,
) -> ExperimentTable:
    """Speedup-versus-workers table for sharded execution.

    ``workers=1`` rows exercise the executor's serial fast path (numerically
    identical to the baseline run, so its speedup ≈ 1 by construction).
    ``trials`` repeats each timed run and keeps the fastest — the usual
    guard against scheduler noise.
    """
    table = ExperimentTable(
        experiment_id="parallel_scaling",
        paper_artifact="process-pool sharded execution (beyond the paper)",
        description=(
            "Serial batched vs process-pool sharded wall-clock on the synthetic "
            f"eval-time workload ({function_name}, real {real_eval_time * 1e3:g} ms/call, "
            f"batch_size={batch_size}, merge={merge!r})"
        ),
    )
    requirement = AccuracyRequirement(epsilon=epsilon, delta=0.05)

    def timed_run(strategy: str, workers: int | None) -> tuple[float, int]:
        """One full run; ``workers=None`` is the serial batched baseline."""
        if workers is None:
            plan = ExecutionPlan(batch_size=batch_size)
        else:
            plan = ExecutionPlan(
                batch_size=batch_size, workers=workers, parallel_seed=shard_seed,
                merge=merge,  # type: ignore[arg-type]
            )
        best = float("inf")
        calls = 0
        for _ in range(max(1, trials)):
            udf = reference_function(function_name, real_eval_time=real_eval_time)
            kwargs = {"n_samples": n_samples} if strategy == "gp" and n_samples else {}
            engine = UDFExecutionEngine(
                strategy=strategy, requirement=requirement, random_state=random_state,
                **kwargs,
            )
            dists = list(
                input_stream(
                    workload_for_udf(udf), n_tuples, random_state=as_generator(stream_seed)
                )
            )
            started = time.perf_counter()
            plan.resolve(engine).compute_batch(udf, dists)
            best = min(best, time.perf_counter() - started)
            calls = udf.call_count
        return best, calls

    for strategy in strategies:
        serial_wall, serial_calls = timed_run(strategy, None)
        table.add_row(
            strategy=strategy,
            mode="serial",
            workers=1,
            n_tuples=n_tuples,
            wall_ms=float(serial_wall * 1000.0),
            udf_calls=serial_calls,
            speedup=1.0,
        )
        for workers in workers_list:
            wall, calls = timed_run(strategy, workers)
            table.add_row(
                strategy=strategy,
                mode="parallel",
                workers=workers,
                n_tuples=n_tuples,
                wall_ms=float(wall * 1000.0),
                udf_calls=calls,
                speedup=float(serial_wall / max(wall, 1e-12)),
            )
    return table


def parallel_report(table: ExperimentTable) -> dict:
    """JSON-ready summary of a :func:`parallel_scaling` run.

    ``speedup`` maps ``strategy -> {workers -> speedup}``;
    ``speedup_at_4`` pulls out the headline workers=4 number tracked by the
    CI smoke artifact (falling back to the largest measured worker count
    when 4 was not part of the sweep).
    """
    speedups: dict[str, dict[int, float]] = {}
    for row in table.rows:
        if row["mode"] != "parallel":
            continue
        speedups.setdefault(row["strategy"], {})[int(row["workers"])] = float(row["speedup"])
    headline = {}
    for strategy, by_workers in speedups.items():
        target = 4 if 4 in by_workers else max(by_workers)
        headline[strategy] = {"workers": target, "speedup": by_workers[target]}
    return {
        "experiment_id": table.experiment_id,
        "description": table.description,
        "rows": list(table.rows),
        "speedup": {s: {str(w): v for w, v in by.items()} for s, by in speedups.items()},
        "speedup_at_4": headline,
    }


def _same_outputs(a_outputs, b_outputs) -> bool:
    """Bit-identity of two runs: samples, bounds and per-tuple UDF charges."""
    if a_outputs is None or b_outputs is None or len(a_outputs) != len(b_outputs):
        return False
    for a, b in zip(a_outputs, b_outputs):
        if not np.array_equal(a.distribution.samples, b.distribution.samples):
            return False
        if a.error_bound != b.error_bound or a.udf_calls != b.udf_calls:
            return False
    return True


def shared_learning(
    function_name: str = "F4",
    workers: int = 4,
    n_tuples: int = 32,
    batch_size: int = 8,
    real_eval_time: float = 2e-3,
    epsilon: float = 0.15,
    n_samples: int | None = 300,
    trials: int = 1,
    random_state=11,
    stream_seed: int = 2,
    shard_seed: int = 42,
) -> ExperimentTable:
    """Worker-count-invariant learning: ``merge="shared"`` vs the shard walls.

    Under ``merge="discard"`` each shard learns alone, so the fleet re-pays
    the model-building UDF calls once per shard; the live shared store lets
    every shard absorb the others' evaluations mid-stream, pinning the
    fleet's *total* UDF charge near the serial run's.  All runs within one
    invocation share seeds and hardware, so the headline
    ``udf_calls_ratio`` — shared-at-``workers`` calls over serial calls —
    is hardware-independent and gateable on any runner; wall-clock speedups
    still need real cores.  The ``workers=1`` shared row doubles as the
    bit-identity check against the serial batched path (the determinism
    half of the acceptance contract).
    """
    table = ExperimentTable(
        experiment_id="shared_learning",
        paper_artifact="live shared GP emulator (beyond the paper)",
        description=(
            "Serial batched vs sharded merge policies on the synthetic eval-time "
            f"workload ({function_name}, real {real_eval_time * 1e3:g} ms/call, "
            f"batch_size={batch_size}): total UDF charge under a live shared model"
        ),
    )
    requirement = AccuracyRequirement(epsilon=epsilon, delta=0.05)

    def timed_run(merge: str | None, run_workers: int | None):
        """One run; ``run_workers=None`` is the serial batched baseline."""
        if run_workers is None:
            plan = ExecutionPlan(batch_size=batch_size)
        else:
            plan = ExecutionPlan(
                batch_size=batch_size, workers=run_workers, parallel_seed=shard_seed,
                merge=merge,  # type: ignore[arg-type]
            )
        best = float("inf")
        calls = 0
        outputs = None
        refresh_ms = append_ms = 0.0
        for _ in range(max(1, trials)):
            udf = reference_function(function_name, real_eval_time=real_eval_time)
            engine = UDFExecutionEngine(
                strategy="gp", requirement=requirement, random_state=random_state,
                n_samples=n_samples,
            )
            dists = list(
                input_stream(
                    workload_for_udf(udf), n_tuples, random_state=as_generator(stream_seed)
                )
            )
            started = time.perf_counter()
            executor = plan.resolve(engine)
            outputs = executor.compute_batch(udf, dists)
            refresh_ms = executor.timings.get("model_refresh") * 1000.0
            append_ms = executor.timings.get("model_append") * 1000.0
            best = min(best, time.perf_counter() - started)
            calls = udf.call_count
        return best, calls, outputs, refresh_ms, append_ms

    serial_wall, serial_calls, serial_outputs, _, _ = timed_run(None, None)

    def add(mode, merge, run_workers, wall, calls, matches, refresh_ms, append_ms):
        table.add_row(
            mode=mode,
            merge=merge,
            workers=run_workers,
            n_tuples=n_tuples,
            wall_ms=float(wall * 1000.0),
            udf_calls=calls,
            udf_calls_ratio=float(calls / max(serial_calls, 1)),
            speedup=float(serial_wall / max(wall, 1e-12)),
            matches_serial=matches,
            model_refresh_ms=refresh_ms,
            model_append_ms=append_ms,
        )

    add("serial", "-", 1, serial_wall, serial_calls, True, 0.0, 0.0)

    wall, calls, outputs, refresh_ms, append_ms = timed_run("shared", 1)
    add("shared-serial", "shared", 1, wall, calls,
        _same_outputs(serial_outputs, outputs), refresh_ms, append_ms)

    wall, calls, _, refresh_ms, append_ms = timed_run("discard", workers)
    add("sharded", "discard", workers, wall, calls, None, refresh_ms, append_ms)

    wall, calls, _, refresh_ms, append_ms = timed_run("shared", workers)
    add("sharded", "shared", workers, wall, calls, None, refresh_ms, append_ms)
    return table


def shared_learning_report(table: ExperimentTable) -> dict:
    """JSON-ready summary of a :func:`shared_learning` run.

    ``udf_calls_ratio_workers4`` is the headline gated metric — the shared
    fleet's total UDF charge over the serial run's, measured in the same
    invocation so it transfers across runner hardware;
    ``identical_at_1`` records the ``workers=1`` bit-identity verdict; the
    speedups and model-exchange costs ride along for trend tracking.
    """
    ratio = speedup = None
    discard_ratio = identical_at_1 = None
    refresh_ms = append_ms = None
    for row in table.rows:
        if row["mode"] == "shared-serial":
            identical_at_1 = bool(row["matches_serial"])
        elif row["mode"] == "sharded" and row["merge"] == "shared":
            ratio = float(row["udf_calls_ratio"])
            speedup = float(row["speedup"])
            refresh_ms = float(row["model_refresh_ms"])
            append_ms = float(row["model_append_ms"])
        elif row["mode"] == "sharded" and row["merge"] == "discard":
            discard_ratio = float(row["udf_calls_ratio"])
    return {
        "experiment_id": table.experiment_id,
        "description": table.description,
        "rows": list(table.rows),
        "udf_calls_ratio_workers4": ratio,
        "discard_calls_ratio_workers4": discard_ratio,
        "speedup_at_4": speedup,
        "identical_at_1": identical_at_1,
        "model_refresh_ms": refresh_ms,
        "model_append_ms": append_ms,
    }
