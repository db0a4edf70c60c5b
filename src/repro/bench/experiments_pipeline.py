"""Cross-tuple pipeline benchmark: lookahead sweep (CI smoke).

Measures the wall-clock effect of the cross-tuple speculation stage
(:class:`~repro.engine.pipeline.SpeculationStage`) on a workload whose
black-box calls carry **real** per-call latency
(:class:`~repro.udf.synthetic.RealCostFunction`).  The comparison point is
the *within-tuple* overlap alone (the same refinement window at
lookahead 1): that path still
serialises the window rounds of consecutive tuples — the tail of tuple *i*
blocks the sampling, first inference and first window of tuple *i + 1* —
and hiding exactly that gap is the scheduler's job.  The gap is widest at
*small* windows (the call-frugal configuration: speculative overshoot per
round is at most ``window - 1`` evaluations), which is why the default
sweep uses a modest ``inflight``.

Protocol: the same tuple stream (identical seeds, cold model) is pushed
through the chunk executor (:class:`~repro.engine.batch.BatchExecutor`)
at the configured window ("async") and at that window plus each
lookahead.  The table reports wall-clock, UDF calls (the pipeline pays
extra, deterministic speculative calls) and the speedup versus the
*async* run.  Every pipeline row doubles as a determinism check,
CI-enforced by ``run_all --smoke``: it must be **bit-identical to the
async run** — the scheduler's contract is that prefetching changes who
pays for an evaluation and when it happens, never the committed
trajectory.  Lookahead 1 attaches no stage and builds the serial
executor, so the sweep leaves it out; ``tests/test_pipeline.py`` pins
that identity.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentTable, outputs_identical, timed_run
from repro.core.accuracy import AccuracyRequirement
from repro.engine.plan import ExecutionPlan
from repro.udf.synthetic import reference_function


def udf_pipeline(
    function_name: str = "F1",
    lookahead_list: tuple[int, ...] = (2, 4),
    inflight: int = 4,
    n_tuples: int = 16,
    batch_size: int = 16,
    real_eval_time: float = 2e-2,
    real_eval_jitter: float = 0.0,
    epsilon: float = 0.15,
    n_samples: int | None = 120,
    trials: int = 1,
    random_state=7,
    stream_seed: int = 3,
) -> ExperimentTable:
    """Speedup-versus-``pipeline_lookahead`` table for cross-tuple overlap.

    ``real_eval_time`` is the black box's genuine per-call latency;
    ``real_eval_jitter`` optionally varies it per point so concurrent calls
    complete out of submission order (the results must not change — see
    ``tests/test_pipeline.py``).  ``trials`` repeats each timed run and
    keeps the fastest, the usual guard against scheduler noise.

    Each pipeline row records bit-identity against the within-tuple async
    baseline in ``matches_async`` — the determinism contract, expected
    ``True`` everywhere.
    """
    table = ExperimentTable(
        experiment_id="udf_pipeline",
        paper_artifact="cross-tuple pipelined refinement (beyond the paper)",
        description=(
            "Within-tuple async vs cross-tuple pipelined refinement wall-clock on "
            f"the real-cost workload ({function_name}, {real_eval_time * 1e3:g} ms/call, "
            f"inflight={inflight}, batch_size={batch_size})"
        ),
    )
    requirement = AccuracyRequirement(epsilon=epsilon, delta=0.05)

    def run(lookahead: int | None = None):
        """One full run; ``lookahead=None`` is the within-tuple async baseline."""
        return timed_run(
            lambda: reference_function(
                function_name,
                real_eval_time=real_eval_time,
                real_eval_jitter=real_eval_jitter,
            ),
            ExecutionPlan(
                batch_size=batch_size, async_inflight=inflight, pipeline_lookahead=lookahead
            ),
            n_tuples=n_tuples, stream_seed=stream_seed, trials=trials,
            strategy="gp", requirement=requirement, random_state=random_state,
            n_samples=n_samples,
        )

    windowed = run()
    table.add_row(
        mode="async", lookahead=0, n_tuples=n_tuples,
        wall_ms=float(windowed.wall_s * 1000.0), udf_calls=windowed.udf_calls,
        wasted_calls=0, speedup=1.0, matches_async=True,
    )
    for lookahead in lookahead_list:
        piped = run(lookahead)
        table.add_row(
            mode="pipeline",
            lookahead=lookahead,
            n_tuples=n_tuples,
            wall_ms=float(piped.wall_s * 1000.0),
            udf_calls=piped.udf_calls,
            wasted_calls=piped.wasted_calls,
            speedup=float(windowed.wall_s / max(piped.wall_s, 1e-12)),
            matches_async=outputs_identical(windowed.outputs, piped.outputs),
        )
    return table


def pipeline_report(table: ExperimentTable) -> dict:
    """JSON-ready summary of a :func:`udf_pipeline` run.

    ``speedup`` maps ``lookahead -> speedup over the async baseline``;
    ``speedup_at_4`` pulls out the headline lookahead-4 number tracked by
    the CI smoke artifact (falling back to the largest measured lookahead
    when 4 was not part of the sweep).  ``identical_above_1`` records
    whether every pipeline row was bit-identical to the async run — the
    determinism contract.
    """
    pipeline_rows = [row for row in table.rows if row["mode"] == "pipeline"]
    speedups = {int(row["lookahead"]): float(row["speedup"]) for row in pipeline_rows}
    headline = None
    if speedups:
        target = 4 if 4 in speedups else max(speedups)
        headline = {"lookahead": target, "speedup": speedups[target]}
    return {
        "experiment_id": table.experiment_id,
        "description": table.description,
        "rows": list(table.rows),
        "speedup": {str(k): v for k, v in sorted(speedups.items())},
        "speedup_at_4": headline,
        "identical_above_1": (
            all(bool(row["matches_async"]) for row in pipeline_rows)
            if pipeline_rows else None
        ),
    }
