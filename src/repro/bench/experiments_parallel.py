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

from repro.bench.harness import ExperimentTable, outputs_identical, timed_run
from repro.core.accuracy import AccuracyRequirement
from repro.engine.plan import ExecutionPlan
from repro.udf.synthetic import reference_function


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

    def run(strategy: str, plan: ExecutionPlan):
        kwargs = {"n_samples": n_samples} if strategy == "gp" and n_samples else {}
        return timed_run(
            lambda: reference_function(function_name, real_eval_time=real_eval_time),
            plan, n_tuples=n_tuples, stream_seed=stream_seed, trials=trials,
            strategy=strategy, requirement=requirement, random_state=random_state,
            **kwargs,
        )

    for strategy in strategies:
        serial = run(strategy, ExecutionPlan(batch_size=batch_size))
        table.add_row(
            strategy=strategy,
            mode="serial",
            workers=1,
            n_tuples=n_tuples,
            wall_ms=float(serial.wall_s * 1000.0),
            udf_calls=serial.udf_calls,
            speedup=1.0,
        )
        for workers in workers_list:
            sharded = run(strategy, ExecutionPlan(
                batch_size=batch_size, workers=workers, parallel_seed=shard_seed,
                merge=merge,  # type: ignore[arg-type]
            ))
            table.add_row(
                strategy=strategy,
                mode="parallel",
                workers=workers,
                n_tuples=n_tuples,
                wall_ms=float(sharded.wall_s * 1000.0),
                udf_calls=sharded.udf_calls,
                speedup=float(serial.wall_s / max(sharded.wall_s, 1e-12)),
            )
    return table


def parallel_report(*tables: ExperimentTable) -> dict:
    """JSON-ready summary of one or more :func:`parallel_scaling` runs.

    ``speedup`` maps ``strategy -> {workers -> speedup}``;
    ``speedup_at_4`` pulls out the headline workers=4 number tracked by the
    CI smoke artifact (falling back to the largest measured worker count
    when 4 was not part of the sweep).  A :func:`shared_learning` table
    contributes its ``serial`` and ``discard`` rows as the gp sweep: at the
    same kwargs the two experiments run the same computations on the same
    seeds, so the smoke runs them once.
    """
    rows = [
        row
        for table in tables
        for row in (
            table.rows if table.experiment_id == "parallel_scaling" else _scaling_rows(table)
        )
    ]
    speedups: dict[str, dict[int, float]] = {}
    for row in rows:
        if row["mode"] != "parallel":
            continue
        speedups.setdefault(row["strategy"], {})[int(row["workers"])] = float(row["speedup"])
    headline = {}
    for strategy, by_workers in speedups.items():
        target = 4 if 4 in by_workers else max(by_workers)
        headline[strategy] = {"workers": target, "speedup": by_workers[target]}
    return {
        "experiment_id": "parallel_scaling",
        "rows": rows,
        "speedup": {s: {str(w): v for w, v in by.items()} for s, by in speedups.items()},
        "speedup_at_4": headline,
    }


def _scaling_rows(table: ExperimentTable) -> list[dict]:
    """A :func:`shared_learning` table's serial and discard rows, as gp scaling rows."""
    rows = []
    for row in table.rows:
        if row["mode"] == "serial" or row["merge"] == "discard":
            rows.append({
                "strategy": "gp",
                "mode": "serial" if row["mode"] == "serial" else "parallel",
                "workers": row["workers"],
                "n_tuples": row["n_tuples"],
                "wall_ms": row["wall_ms"],
                "udf_calls": row["udf_calls"],
                "speedup": row["speedup"],
            })
    return rows


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

    def run(merge: str | None = None, run_workers: int | None = None):
        """One run; ``run_workers=None`` is the serial batched baseline."""
        plan = ExecutionPlan(batch_size=batch_size)
        if run_workers is not None:
            plan = ExecutionPlan(
                batch_size=batch_size, workers=run_workers, parallel_seed=shard_seed,
                merge=merge,  # type: ignore[arg-type]
            )
        return timed_run(
            lambda: reference_function(function_name, real_eval_time=real_eval_time),
            plan, n_tuples=n_tuples, stream_seed=stream_seed, trials=trials,
            strategy="gp", requirement=requirement, random_state=random_state,
            n_samples=n_samples,
        )

    serial = run()

    def add(mode, merge, run_workers, result, matches):
        table.add_row(
            mode=mode,
            merge=merge,
            workers=run_workers,
            n_tuples=n_tuples,
            wall_ms=float(result.wall_s * 1000.0),
            udf_calls=result.udf_calls,
            udf_calls_ratio=float(result.udf_calls / max(serial.udf_calls, 1)),
            speedup=float(serial.wall_s / max(result.wall_s, 1e-12)),
            matches_serial=matches,
            model_refresh_ms=result.timings.get("model_refresh") * 1000.0,
            model_append_ms=result.timings.get("model_append") * 1000.0,
        )

    add("serial", "-", 1, serial, True)
    shared_1 = run("shared", 1)
    add("shared-serial", "shared", 1, shared_1,
        outputs_identical(serial.outputs, shared_1.outputs, charges=True))
    add("sharded", "discard", workers, run("discard", workers), None)
    add("sharded", "shared", workers, run("shared", workers), None)
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
