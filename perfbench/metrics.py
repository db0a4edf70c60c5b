"""Metric names, and how each is computed from what a run recorded.

:data:`END_TO_END` and :data:`PER_LAYER` are the single list of names: the
worker prints exactly these, ``BENCHMARK.json`` lists exactly these (a
self-test compares the two), and ``perfbench/README.md`` explains them.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

import numpy as np
from repro.engine.result import VERDICT_CERTAIN, VERDICT_EXCLUDED

from perfbench.workloads import Harness, OpRecord

#: name -> unit.  Every workload reports every one of them, none is ever 0.
END_TO_END: dict[str, str] = {
    "op_a_ms": "ms",
    "op_b_ms": "ms",
    "certain_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Busy seconds and call counts read straight from the tracer: metric -> key.
_BUSY = {
    "distributions.sample_s": "distributions.sample",
    "index.search_s": "index.search",
    "index.insert_s": "index.insert",
    "gp.kernel_s": "gp.kernel",
    "gp.cholesky_s": "gp.cholesky",
    "gp.inverse_update_s": "gp.inverse_update",
    "gp.predict_s": "gp.predict",
    "gp.add_points_s": "gp.add_points",
    "gp.fit_s": "gp.fit",
    "core.local_inference.predict_s": "core.local_inference.predict",
    "core.local_inference.cache_sync_s": "core.local_inference.cache_sync",
    "core.local_inference.local_inverse_s": "core.local_inference.local_inverse",
    "core.error_bounds.bound_s": "core.error_bounds.bound",
    "core.confidence_bands.z_s": "core.confidence_bands.z",
    "core.filtering.decision_s": "core.filtering.decision",
    "core.emulator.add_points_s": "core.emulator.add_points",
    "core.emulator.absorb_s": "core.emulator.absorb",
    "core.emulator.retrain_s": "core.emulator.retrain",
    "core.shared_model.exchange_s": "core.shared_model.exchange",
    "udf.evaluate_s": "udf.evaluate",
    "engine.transport.submit_s": "engine.transport.submit",
    "engine.transport.wait_s": "engine.transport.wait",
    "engine.transport.open_close_s": "engine.transport.open_close",
    "engine.plan.resolve_s": "engine.plan.resolve",
    "engine.service.submit_s": "engine.service.submit",
}
_CALLS = {
    "distributions.sample_calls": "distributions.sample",
    "index.search_calls": "index.search",
    "gp.kernel_calls": "gp.kernel",
    "gp.cholesky_calls": "gp.cholesky",
    "gp.inverse_update_calls": "gp.inverse_update",
    "gp.fit_calls": "gp.fit",
    "core.local_inference.predict_calls": "core.local_inference.predict",
    "core.error_bounds.bound_calls": "core.error_bounds.bound",
    "core.emulator.retrain_calls": "core.emulator.retrain",
    "core.shared_model.exchange_calls": "core.shared_model.exchange",
}
#: Self seconds (duration minus wrapped children on the same thread).
_SELF = {
    "core.olgapro.self_s": "core.olgapro.process",
    "engine.batch.self_s": "engine.batch.run",
    "engine.async_exec.self_s": "engine.async_exec.run",
    "engine.pipeline.self_s": "engine.pipeline.run",
    "engine.parallel.self_s": "engine.parallel.run",
}
_PHASES = ("execute", "sampling", "inference", "refinement", "filtering", "speculation")
_SERVICE_STATS = ("submitted", "completed", "rejected", "failed", "timed_out")

PER_LAYER: dict[str, str] = {
    **{name: "s" for name in _BUSY},
    **{name: "count" for name in _CALLS},
    **{name: "s" for name in _SELF},
    "gp.factorizations": "count",
    "gp.training_points": "count",
    "core.filtering.excluded_share": "share",
    "core.olgapro.tuples": "count",
    "core.shared_model.model_refresh_s": "s",
    "core.shared_model.model_append_s": "s",
    "core.shared_model.merged_points": "count",
    "core.shared_model.dropped_points": "count",
    "udf.calls": "count",
    "udf.calls_per_op_a": "calls/op",
    "udf.calls_per_op_b": "calls/op",
    "udf.eval_busy_s": "s",
    "udf.charged_s": "s",
    "udf.retries": "count",
    "udf.max_in_flight": "count",
    "engine.transport.sessions": "count",
    "engine.pipeline.speculative_calls": "count",
    "engine.pipeline.wasted_calls": "count",
    "engine.pipeline.useful_call_ratio": "share",
    "engine.pipeline.walk_refreshes": "count",
    "engine.parallel.worker_busy_s": "s",
    "engine.operators.overhead_s": "s",
    "engine.service.queue_wait_p50_ms": "ms",
    "engine.service.queue_wait_p90_ms": "ms",
    "engine.service.exec_p50_ms": "ms",
    "engine.service.latency_tail_ms": "ms",
    "engine.service.latency_tail_percentile": "%",
    "engine.service.peak_active": "count",
    "engine.service.generator_late_max_ms": "ms",
    **{f"engine.service.{name}": "count" for name in _SERVICE_STATS},
    **{f"engine.phase.{phase}_s": "s" for phase in _PHASES},
    "engine.phase.inference_share_a": "share",
    "engine.unaccounted_share": "share",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "share",
    "trace.op_a_ms": "ms",
    "trace.op_b_ms": "ms",
    "workload.ops_a": "count",
    "workload.ops_b": "count",
    "audit.audited": "count",
    "audit.bound_violation_share": "share",
}


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it.

    With fewer than twenty samples nothing above the median qualifies, and
    the median is what is reported.
    """
    return max(50.0, 100.0 * (n - 10) / n) if n else 50.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no values)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _of_kind(records: Iterable[OpRecord], kind: str) -> list[OpRecord]:
    return [r for r in records if r.kind == kind and r.failed < r.ops]


def ms_per_op(records: Sequence[OpRecord]) -> float:
    """Summed wall over summed operations: inverse throughput, in ms."""
    ops = sum(r.ops for r in records)
    return 1000.0 * sum(r.wall for r in records) / ops if ops else 0.0


def op_times(records: Sequence[OpRecord], latency: bool) -> dict[str, float]:
    """Time per operation of each kind, in ms.

    ``latency`` says kind ``a`` is a stream of single requests, reported as
    the median latency; everything else is work completed at a stated size,
    reported as summed wall over summed operations.
    """
    a, b = _of_kind(records, "a"), _of_kind(records, "b")
    return {
        "op_a_ms": percentile([r.ms_per_op for r in a], 50.0) if latency else ms_per_op(a),
        "op_b_ms": ms_per_op(b),
    }


def certain_share(records: Sequence[OpRecord]) -> float:
    """``certain`` outputs over produced (non-excluded) outputs."""
    produced = certain = 0
    for record in records:
        for verdict, count in record.verdicts.items():
            if verdict != VERDICT_EXCLUDED:
                produced += count
            if verdict == VERDICT_CERTAIN:
                certain += count
    return certain / produced if produced else 0.0


def end_to_end(harness: Harness, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    return {
        **op_times(harness.records, harness.latency),
        "certain_share": certain_share(harness.records),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(
    harness: Harness,
    tracer: Any,
    cpu_s: float,
    audited: int,
    violations: int,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run."""
    totals = tracer.totals()
    spans = tracer.spans()
    records = harness.records

    def total(key: str, what: str) -> float:
        return float(totals.get(key, {}).get(what, 0.0))

    out: dict[str, float] = {}
    out.update({name: total(key, "busy") for name, key in _BUSY.items()})
    out.update({name: total(key, "calls") for name, key in _CALLS.items()})
    out.update({name: total(key, "self") for name, key in _SELF.items()})

    # Every GaussianProcess a recorded fit or update was called on, by id.
    models = {**tracer.kept.get("gp.fit", {}), **tracer.kept.get("gp.add_points", {})}.values()
    out["gp.factorizations"] = float(sum(gp.factorization_count for gp in models))
    out["gp.training_points"] = float(max((gp.n_training for gp in models), default=0))

    verdicts: dict[str, int] = {}
    phases: dict[str, float] = {}
    for record in records:
        for verdict, count in record.verdicts.items():
            verdicts[verdict] = verdicts.get(verdict, 0) + count
        for phase, seconds in record.timings.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    n_outputs = sum(verdicts.values())
    out["core.filtering.excluded_share"] = (
        verdicts.get(VERDICT_EXCLUDED, 0) / n_outputs if n_outputs else 0.0
    )
    out["core.olgapro.tuples"] = float(n_outputs)
    out["core.shared_model.model_refresh_s"] = phases.get("model_refresh", 0.0)
    out["core.shared_model.model_append_s"] = phases.get("model_append", 0.0)

    executors = list(tracer.kept.get("engine.plan.resolve", {}).values())

    def counter(attr: str) -> float:
        return float(sum(getattr(executor, attr, 0) or 0 for executor in executors))

    out["core.shared_model.merged_points"] = counter("last_merged_points")
    out["core.shared_model.dropped_points"] = counter("last_dropped_points")
    out["engine.pipeline.speculative_calls"] = counter("last_speculative_calls")
    out["engine.pipeline.wasted_calls"] = counter("last_wasted_calls")
    out["engine.pipeline.walk_refreshes"] = counter("last_walk_refreshes")

    calls = sum(r.udf_calls for r in records)
    charged = sum(r.charged_calls for r in records)
    out["udf.calls"] = float(calls)
    for kind in ("a", "b"):
        of_kind = [r for r in records if r.kind == kind]
        ops = sum(r.ops for r in of_kind)
        out[f"udf.calls_per_op_{kind}"] = sum(r.udf_calls for r in of_kind) / ops if ops else 0.0
        out[f"workload.ops_{kind}"] = float(ops)
    out["engine.pipeline.useful_call_ratio"] = charged / calls if calls else 0.0
    out["udf.eval_busy_s"] = harness.udf["real_s"]
    out["udf.charged_s"] = harness.udf["charged_s"]
    out["udf.retries"] = float(harness.udf["retries"])
    out["udf.max_in_flight"] = float(harness.udf["max_in_flight"])
    # open and close share one key, so a session is two calls.
    out["engine.transport.sessions"] = total("engine.transport.open_close", "calls") / 2.0

    for phase in _PHASES:
        out[f"engine.phase.{phase}_s"] = phases.get(phase, 0.0)
    kind_a = [r for r in records if r.kind == "a"]
    wall_a = sum(r.wall for r in kind_a)
    out["engine.phase.inference_share_a"] = (
        sum(r.timings.get("inference", 0.0) for r in kind_a) / wall_a if wall_a else 0.0
    )
    # Worker phases are work summed over shards; they only mean "busy in the
    # pool" where a pool ran.
    out["engine.parallel.worker_busy_s"] = (
        sum(phases.get(p, 0.0) for p in _PHASES[1:]) if total("engine.parallel.run", "calls") else 0.0
    )

    # Time inside the engine's own executor/plan/operator spans that no wrapped
    # lower layer (gp, core.*, udf, transport, index, distributions) accounts for.
    engine_self = sum(
        entry["self"] for key, entry in totals.items()
        if key.startswith("engine.") and not key.startswith("engine.transport")
    )
    wall = harness.timed_wall
    out["engine.unaccounted_share"] = engine_self / wall if wall else 0.0

    out.update(_service_metrics(harness, spans))
    out["process.cpu_s"] = cpu_s
    out["process.cpu_per_wall"] = cpu_s / wall if wall else 0.0
    times = op_times(records, harness.latency)
    out["trace.op_a_ms"] = times["op_a_ms"]
    out["trace.op_b_ms"] = times["op_b_ms"]
    out["audit.audited"] = float(audited)
    out["audit.bound_violation_share"] = violations / audited if audited else 0.0
    return out


def _service_metrics(harness: Harness, spans: Sequence[dict]) -> dict[str, float]:
    """Queue wait, execution and overhead per served query (0 on batch workloads)."""
    submitted_at: dict[str, float] = harness.extra.get("submitted_at", {})
    done_at: dict[str, Optional[float]] = harness.extra.get("done_at", {})
    first: dict[str, dict] = {}
    busy: dict[str, float] = {}
    for span in spans:  # in order of start time
        trace_id = span["trace_id"]
        # A served query's root spans are its chunk computations on pool threads.
        if span["parent"] != 0 or trace_id not in submitted_at:
            continue
        first.setdefault(trace_id, span)
        busy[trace_id] = busy.get(trace_id, 0.0) + span["end"] - span["start"]
    waits, execs, overhead = [], [], 0.0
    for trace_id, sent in submitted_at.items():
        span = first.get(trace_id)
        if span is None:
            continue
        waits.append(1000.0 * (span["start"] - sent))
        execs.append(1000.0 * busy[trace_id])
        finished = done_at.get(trace_id)
        if finished is not None:
            overhead += (finished - sent) - (span["start"] - sent) - busy[trace_id]
    stats = harness.extra.get("stats", {})
    steady = [r.ms_per_op for r in _of_kind(harness.records, "a")] if harness.latency else []
    return {
        "engine.service.latency_tail_percentile": tail_percentile(len(steady)) if steady else 0.0,
        "engine.service.latency_tail_ms": percentile(steady, tail_percentile(len(steady))),
        "engine.service.queue_wait_p50_ms": percentile(waits, 50.0),
        "engine.service.queue_wait_p90_ms": percentile(waits, 90.0),
        "engine.service.exec_p50_ms": percentile(execs, 50.0),
        "engine.operators.overhead_s": overhead,
        "engine.service.peak_active": float(harness.extra.get("peak_active", 0)),
        "engine.service.generator_late_max_ms": float(
            harness.extra.get("generator_late_max_ms", 0.0)
        ),
        **{f"engine.service.{name}": float(stats.get(name, 0)) for name in _SERVICE_STATS},
    }
