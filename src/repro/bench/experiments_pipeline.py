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
serially, at the configured window ("async"), and at that window plus
each lookahead.  The table reports
wall-clock, UDF calls (the pipeline pays extra, deterministic speculative
calls) and the speedup versus the *async* run.  Two rows double as
determinism checks, both CI-enforced by ``run_all --smoke``:

* ``lookahead=1`` (scheduler disengaged, no window) must be **bit-identical
  to the serial batched run**, and
* every ``lookahead > 1`` row must be **bit-identical to the async run** —
  the scheduler's contract is that prefetching changes who pays for an
  evaluation and when it happens, never the committed trajectory.
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


def udf_pipeline(
    function_name: str = "F1",
    lookahead_list: tuple[int, ...] = (1, 2, 4),
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

    The ``lookahead=1`` row runs the scheduler disengaged (and without a
    window) and records bit-identity against the serial batched baseline in
    ``matches_serial``; rows at ``lookahead > 1`` record bit-identity
    against the within-tuple async baseline in ``matches_async`` — both are
    halves of the determinism contract and expected ``True`` everywhere.
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

    def run(mode: str, lookahead: int | None = None):
        """One full run; returns (best wall-clock, udf calls, outputs, waste)."""
        if mode == "serial":
            plan = ExecutionPlan(batch_size=batch_size)
        elif mode == "async":
            plan = ExecutionPlan(batch_size=batch_size, async_inflight=inflight)
        else:
            plan = ExecutionPlan(
                batch_size=batch_size,
                pipeline_lookahead=lookahead,
                # lookahead=1 disengages the scheduler entirely: no
                # window either, so the row checks bit-identity against
                # the *serial* batched path (the acceptance contract).
                async_inflight=None if lookahead == 1 else inflight,
            )
        best = float("inf")
        calls = 0
        outputs = None
        wasted = 0
        for _ in range(max(1, trials)):
            udf = reference_function(
                function_name,
                real_eval_time=real_eval_time,
                real_eval_jitter=real_eval_jitter,
            )
            kwargs = {"n_samples": n_samples} if n_samples else {}
            engine = UDFExecutionEngine(
                strategy="gp", requirement=requirement, random_state=random_state,
                **kwargs,
            )
            dists = list(
                input_stream(
                    workload_for_udf(udf), n_tuples, random_state=as_generator(stream_seed)
                )
            )
            started = time.perf_counter()
            executor = plan.resolve(engine)
            outputs = executor.compute_batch(udf, dists)
            wasted = executor.last_wasted_calls
            best = min(best, time.perf_counter() - started)
            calls = udf.call_count
        return best, calls, outputs, wasted

    serial_wall, serial_calls, serial_outputs, _ = run("serial")
    table.add_row(
        mode="serial", lookahead=0, n_tuples=n_tuples,
        wall_ms=float(serial_wall * 1000.0), udf_calls=serial_calls,
        wasted_calls=0, speedup=None,
        matches_serial=True, matches_async=None,
    )
    async_wall, async_calls, async_outputs, _ = run("async")
    table.add_row(
        mode="async", lookahead=0, n_tuples=n_tuples,
        wall_ms=float(async_wall * 1000.0), udf_calls=async_calls,
        wasted_calls=0, speedup=1.0,
        matches_serial=_outputs_identical(serial_outputs, async_outputs),
        matches_async=True,
    )
    for lookahead in lookahead_list:
        wall, calls, outputs, wasted = run("pipeline", lookahead)
        table.add_row(
            mode="pipeline",
            lookahead=lookahead,
            n_tuples=n_tuples,
            wall_ms=float(wall * 1000.0),
            udf_calls=calls,
            wasted_calls=wasted,
            speedup=float(async_wall / max(wall, 1e-12)),
            matches_serial=_outputs_identical(serial_outputs, outputs),
            matches_async=_outputs_identical(async_outputs, outputs),
        )
    return table


def _outputs_identical(a_outputs, b_outputs) -> bool:
    """Whether two runs produced bit-identical distributions and bounds."""
    if a_outputs is None or b_outputs is None or len(a_outputs) != len(b_outputs):
        return False
    for a, b in zip(a_outputs, b_outputs):
        if not np.array_equal(a.distribution.samples, b.distribution.samples):
            return False
        if a.error_bound != b.error_bound:
            return False
    return True


def pipeline_report(table: ExperimentTable) -> dict:
    """JSON-ready summary of a :func:`udf_pipeline` run.

    ``speedup`` maps ``lookahead -> speedup over the async baseline``;
    ``speedup_at_4`` pulls out the headline lookahead-4 number tracked by
    the CI smoke artifact (falling back to the largest measured lookahead
    when 4 was not part of the sweep).  ``identical_at_1`` records the
    bit-identity verdict of the ``lookahead=1`` row against the serial
    batched run, and ``identical_above_1`` the verdict of every deeper row
    against the async run — both halves of the determinism contract.
    """
    speedups: dict[int, float] = {}
    identical_at_1 = None
    identical_above_1 = None
    for row in table.rows:
        if row["mode"] != "pipeline":
            continue
        lookahead = int(row["lookahead"])
        speedups[lookahead] = float(row["speedup"])
        if lookahead == 1:
            identical_at_1 = bool(row["matches_serial"])
        else:
            verdict = bool(row["matches_async"])
            identical_above_1 = (
                verdict if identical_above_1 is None else (identical_above_1 and verdict)
            )
    headline = None
    deep = [k for k in speedups if k > 1]
    if deep:
        target = 4 if 4 in speedups else max(deep)
        headline = {"lookahead": target, "speedup": speedups[target]}
    return {
        "experiment_id": table.experiment_id,
        "description": table.description,
        "rows": list(table.rows),
        "speedup": {str(k): v for k, v in sorted(speedups.items())},
        "speedup_at_4": headline,
        "identical_at_1": identical_at_1,
        "identical_above_1": identical_above_1,
    }
