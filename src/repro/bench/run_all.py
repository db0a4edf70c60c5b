"""Command-line driver that regenerates every paper table and figure.

Usage::

    python -m repro.bench.run_all              # scaled-down (minutes)
    python -m repro.bench.run_all --full       # full-scale (hours)
    python -m repro.bench.run_all --only expt5_eval_time astro_gp_vs_mc
    python -m repro.bench.run_all --output results.txt
    python -m repro.bench.run_all --smoke      # CI smoke: the SMOKE registry
                                               # -> BENCH_smoke.json

Each experiment prints an :class:`~repro.bench.harness.ExperimentTable`; the
``--output`` option additionally writes the combined report to a file so it
can be diffed against EXPERIMENTS.md after code changes.

CI smoke
--------
``--smoke`` walks :data:`SMOKE`, one entry per experiment (batched
pipeline at three shapes, shared learning, parallel scaling, async
overlap, pipeline, transports, auto-planner, serving, fault injection,
and the ungated start-up cost of ``import repro``), and runs each
computation once.  The gp parallel-scaling sweep is the
shared-learning run's serial and ``discard`` rows; an identity between two
spellings of one executor state — ``async_inflight=1``,
``pipeline_lookahead=1`` or a window-1 transport against the serial plan,
``plan="auto"`` against its explicit plan — is pinned by tier-1 tests, not
re-run here.  The identity checks that compare two different code paths
fail the run non-overridably: batched ≡ per-tuple at each shape,
``merge="shared"`` at workers=1 ≡ serial, ``pipeline_lookahead>1`` ≡ the
async trajectory, served ≡ direct, and fault-injected ≡ fault-free with
matching charges in every mode.

CI performance gate
-------------------
``--smoke`` also diffs the run against a committed baseline artifact
(``--baseline``, default ``BENCH_baseline.json`` when present): if the gp
strategy's batched-vs-per-tuple *speedup ratio* regressed by more than
``--max-regression`` (default 25%) at any of the three smoke shapes, the
command exits non-zero and fails the CI job.  On runners with at least
four cores the gp parallel-scaling
speedup at ``workers=4`` is gated the same way, as is the shared-merge
wall-clock speedup (single-core runners skip those metrics loudly — the
ratios collapse there for hardware, not code, reasons).  The shared
learning *UDF-calls* ratio — ``merge="shared"`` fleet calls over serial
calls at ``workers=4`` — is measured within one invocation, so it arms on
every runner against the fixed :data:`SHARED_CALLS_RATIO_LIMIT` ceiling.
The ratios — not absolute wall-clock — are compared so the gate
is robust to runner hardware differences.  To land an intentional
regression, apply the ``perf-regression-ok`` label to the pull request
(the workflow maps it to ``REPRO_PERF_OVERRIDE=1``, which records the
regression in the artifact but lets the job pass), and refresh
``BENCH_baseline.json`` in the same change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.bench import (
    astro_case_study_table,
    astro_gp_vs_mc,
    astro_output_density,
    expt1_local_inference,
    expt2_online_tuning,
    expt3_retraining,
    expt4_accuracy_requirement,
    expt5_eval_time,
    expt6_filtering,
    expt7_dimensionality,
    profile1_function_fitting,
    profile2_error_bound,
    profile3_error_allocation,
)
from repro.bench.experiments_async import (
    async_report,
    transport_report,
    udf_overlap,
    udf_transport,
)
from repro.bench.experiments_auto import auto_plan, auto_plan_report
from repro.bench.experiments_batch import batch_pipeline_speedup, smoke_report
from repro.bench.experiments_faults import fault_injection, faults_report
from repro.bench.experiments_parallel import (
    parallel_report,
    parallel_scaling,
    shared_learning,
    shared_learning_report,
)
from repro.bench.experiments_pipeline import pipeline_report, udf_pipeline
from repro.bench.experiments_serving import serving_load, serving_report
from repro.bench.experiments_startup import startup_cost, startup_report
from repro.bench.harness import ExperimentTable

#: Scaled-down parameter overrides, mirroring the pytest-benchmark wrappers.
_SCALED_OVERRIDES: dict[str, dict] = {
    "profile1_function_fitting": {"n_training_values": (30, 60, 120), "n_test_points": 250},
    "profile2_error_bound": {"n_training": 120, "n_tuples": 5, "n_samples": 800,
                             "n_truth_samples": 12000},
    "profile3_error_allocation": {"mc_fractions": (0.5, 0.7, 0.9), "n_tuples": 4,
                                  "epsilon": 0.15, "max_points_per_tuple": 25,
                                  "n_truth_samples": 6000},
    "expt1_local_inference": {"gamma_fractions": (0.005, 0.05, 0.2), "n_training": 300,
                              "n_tuples": 4, "n_samples": 1500, "n_truth_samples": 6000},
    "expt2_online_tuning": {"strategies": ("random", "largest_variance"), "n_tuples": 15,
                            "initial_points": 20, "n_samples": 300, "max_points_per_tuple": 8,
                            "epsilon": 0.12},
    "expt3_retraining": {"thresholds": (0.05, 1.0), "n_tuples": 8, "n_samples": 400,
                         "epsilon": 0.12, "n_truth_samples": 5000},
    "expt4_accuracy_requirement": {"epsilons": (0.1, 0.2), "function_names": ("F1", "F4"),
                                   "n_tuples": 5},
    "expt5_eval_time": {"eval_times": (1e-5, 1e-3, 1e-1), "function_names": ("F1", "F4"),
                        "n_tuples": 4, "epsilon": 0.12},
    "expt6_filtering": {"target_filter_rates": (0.2, 0.8), "n_tuples": 12, "epsilon": 0.12,
                        "n_truth_samples": 4000},
    "expt7_dimensionality": {"dimensions": (1, 2, 4), "mc_eval_times": (1e-3, 1.0),
                             "n_tuples": 3, "epsilon": 0.12},
    "astro_case_study_table": {"n_probes": 30},
    "astro_output_density": {"n_samples": 3000, "bins": 30},
    "astro_gp_vs_mc": {"epsilons": (0.1, 0.2), "udf_names": ("GalAge", "ComoveVol"),
                       "n_tuples": 4},
    "batch_pipeline": {"n_tuples": 48, "warmup_tuples": 24, "trials": 1},
    "parallel_scaling": {"workers_list": (1, 2, 4), "n_tuples": 12, "batch_size": 4,
                         "real_eval_time": 1e-3, "n_samples": 200,
                         "strategies": ("gp",)},
    "shared_learning": {"workers": 4, "n_tuples": 12, "batch_size": 4,
                        "real_eval_time": 1e-3, "n_samples": 200},
    "udf_overlap": {"inflight_list": (4,), "n_tuples": 4, "batch_size": 4,
                    "real_eval_time": 5e-3, "n_samples": 120},
    "udf_transport": {"transports": ("threads", "asyncio"), "inflight_list": (4,),
                      "n_tuples": 4, "batch_size": 4, "service_latency": 5e-3,
                      "n_samples": 120},
    "udf_pipeline": {"lookahead_list": (4,), "inflight": 2, "n_tuples": 8,
                     "batch_size": 8, "real_eval_time": 1e-2, "n_samples": 120},
    "auto_plan": {"n_tuples": 4, "service_latency": 5e-3, "n_samples": 120},
    "serving": {"clients_list": (1, 4), "queries_per_client": 2, "n_tuples": 2,
                "batch_size": 2, "service_latency": 1e-2, "n_samples": 120},
    "fault_injection": {"n_tuples": 4, "batch_size": 4, "fault_rate": 0.3,
                        "service_latency": 5e-3, "n_samples": 120},
}

#: The batch_pipeline shapes of the CI smoke invocation (`--smoke`), each
#: large enough that the steady-state batching speedup is measurable and
#: small enough for a CI job; every one doubles as a batched ≡ per-tuple
#: bit-identity check (values, bounds, UDF charge counters), enforced
#: non-overridably like the other identity gates.  The first keeps the
#: artifact's historical top-level layout; the others nest under their name:
#: ``dispatch_bound`` is a long warmed-up stream at a small Monte-Carlo
#: budget (m = 64, below any (ε, δ)-derived count), where per-call dispatch
#: is the largest share of a tuple; both modes run the same per-tuple
#: inference step and per-tuple draws, so it watches that the chunk's shared
#: setup does not cost more than it saves; ``in_contract`` is the (ε, δ)-derived
#: sample count perfbench's ``warm_scan`` judges (m = 1 239), so the gate
#: also watches a shape the accuracy contract produces.
_SMOKE_BATCH_SHAPES = {
    "steady": {"n_tuples": 96, "warmup_tuples": 48, "batch_size": 32, "trials": 2},
    "dispatch_bound": {"strategies": ("gp",), "dimension": 1, "n_tuples": 384,
                       "warmup_tuples": 96, "batch_size": 32, "epsilon": 0.35,
                       "eval_time": 5e-4, "n_samples": 64,
                       "band_method": "bonferroni", "trials": 5},
    "in_contract": {"strategies": ("gp",), "n_tuples": 96, "warmup_tuples": 48,
                    "batch_size": 32, "epsilon": 0.12, "n_samples": None,
                    "trials": 2},
}

#: Parameters of the smoke shared-learning run: serial, workers=1 shared,
#: workers=4 discard and workers=4 shared, all on the same seeds within one
#: invocation, so the headline ``udf_calls_ratio_workers4`` (shared fleet
#: calls / serial calls) is a deterministic, hardware-independent count
#: ratio gated on every runner against :data:`SHARED_CALLS_RATIO_LIMIT`;
#: the workers=1 shared row is the bit-identity check against the serial
#: batched path.  Its serial and discard rows are also the gp half of the
#: parallel-scaling report: ``parallel_scaling`` at these kwargs runs those
#: very computations, so the smoke runs them once.  A real per-call UDF
#: cost lets worker processes overlap it, and the "discard" policy keeps
#: each shard's kernel algebra local-sized, so workers=4 clears 2x.
_SMOKE_SHARED_KWARGS = {"workers": 4, "n_tuples": 32, "batch_size": 8,
                        "real_eval_time": 2e-3, "epsilon": 0.15, "n_samples": 300}

#: Parameters of the smoke mc parallel-scaling run: UDF-bound outright, so
#: workers=4 clears 2x even on a single-core runner.
_SMOKE_PARALLEL_KWARGS = {"strategies": ("mc",), "workers_list": (4,), "n_tuples": 16,
                          "batch_size": 4, "real_eval_time": 1e-3, "epsilon": 0.15}

#: Parameters of the smoke udf_overlap run: a cold model on a UDF with a
#: genuinely slow per-call latency, so the refinement loop is latency-bound —
#: the regime where overlapping ``async_inflight=8`` in-flight calls clears
#: 2x even on a single-core runner (the "work" being overlapped is sleep).
_SMOKE_ASYNC_KWARGS = {"inflight_list": (8,), "n_tuples": 8, "batch_size": 8,
                       "real_eval_time": 2e-2, "epsilon": 0.12, "n_samples": 120}

#: Parameters of the smoke udf_pipeline run: the same 20 ms/call real-cost
#: regime as the async smoke, at a *small* refinement window — the
#: call-frugal configuration where the within-tuple overlap is most
#: latency-bound (a window of 2 serialises a round per two evaluations) and
#: the cross-tuple scheduler therefore has the most serial gap to hide
#: (target ≥1.5x at lookahead=4, with margin).  The lookahead=4 row doubles
#: as the bit-identity check against the async trajectory.
_SMOKE_PIPELINE_KWARGS = {"lookahead_list": (4,), "inflight": 2, "n_tuples": 16,
                          "batch_size": 16, "real_eval_time": 2e-2, "epsilon": 0.15,
                          "n_samples": 120, "trials": 2}

#: Parameters of the smoke udf_transport run: every named overlap transport
#: on a 20 ms/request simulated async UDF service — the workload of the
#: event-loop transport's acceptance contract; 8 is the ≥2x overlap
#: headline for the asyncio transport.
_SMOKE_TRANSPORT_KWARGS = {"transports": ("threads", "asyncio"),
                           "inflight_list": (8,),
                           "n_tuples": 6, "batch_size": 6, "service_latency": 2e-2,
                           "epsilon": 0.12, "n_samples": 120}

#: Parameters of the smoke auto_plan run: a declared 20 ms/request async UDF
#: service — the slow latency class, where the catalog profile drives the
#: auto-planner to the asyncio transport with a window of 8 (no cross-tuple
#: lookahead: auto never picks it).  The naive baseline pays every request serially,
#: so the auto-planned run clears ≥2x even on a single-core runner (the
#: overlapped "work" is awaited sleep) and the ratio gates on every runner.
_SMOKE_AUTO_PLAN_KWARGS = {"n_tuples": 6, "batch_size": 32,
                           "service_latency": 2e-2, "epsilon": 0.12,
                           "n_samples": 120}

#: Parameters of the smoke serving run: the closed-loop load generator on
#: the 20 ms/request simulated async UDF service.  Each query's cost is
#: dominated by awaited service latency, so the 4-client throughput clears
#: 2x the 1-client closed loop even on a single-core runner (the serving
#: layer overlaps sleeps on its shared worker budget — no cores needed),
#: and the p50/p99 latencies are sleep-dominated and therefore comparable
#: across runner hardware.  The ``clients=0`` reference row doubles as the
#: served-vs-direct bit-identity check, enforced like the other identity
#: gates.
_SMOKE_SERVING_KWARGS = {"clients_list": (1, 4, 16), "queries_per_client": 3,
                         "n_tuples": 2, "batch_size": 2, "service_latency": 2e-2,
                         "epsilon": 0.15, "n_samples": 120, "worker_budget": 8}

#: Parameters of the smoke fault_injection run: transient faults injected at
#: rate 0.3 (≥ the 0.2 the acceptance contract demands) on every execution
#: mode (serial / threads / asyncio), with consecutive failures capped at
#: ``max_attempts - 1`` so every streak is recoverable by construction.  The
#: gate asserts *bit-identity* of each recovered run against the fault-free
#: same-seed run plus matching UDF charge counters — correctness properties,
#: enforced non-overridably like the other identity checks.
_SMOKE_FAULTS_KWARGS = {"fault_rate": 0.3, "max_attempts": 3, "n_tuples": 6,
                        "batch_size": 6, "inflight": 4, "service_latency": 5e-3,
                        "epsilon": 0.12, "n_samples": 120}

#: Relative drop of the gp batched speedup that fails the CI gate.
DEFAULT_MAX_REGRESSION = 0.25

#: Hard ceiling on the shared-merge UDF-calls ratio at workers=4: the
#: whole point of the live shared model is worker-count-invariant learning,
#: so the fleet's total charge may exceed the serial run's by at most 20%.
#: An absolute limit, not a baseline diff — the ratio is computed within
#: one invocation and does not drift with runner hardware.
SHARED_CALLS_RATIO_LIMIT = 1.2

#: Cores required before the parallel-scaling gate arms: the committed
#: baseline's workers=4 speedup is only reproducible with real cores to
#: overlap on, so single-core CI runners skip (loudly) instead of failing.
PARALLEL_GATE_MIN_CPUS = 4

#: Every experiment, in presentation order.
EXPERIMENTS: dict[str, Callable[..., ExperimentTable]] = {
    "profile1_function_fitting": profile1_function_fitting,
    "profile2_error_bound": profile2_error_bound,
    "profile3_error_allocation": profile3_error_allocation,
    "expt1_local_inference": expt1_local_inference,
    "expt2_online_tuning": expt2_online_tuning,
    "expt3_retraining": expt3_retraining,
    "expt4_accuracy_requirement": expt4_accuracy_requirement,
    "expt5_eval_time": expt5_eval_time,
    "expt6_filtering": expt6_filtering,
    "expt7_dimensionality": expt7_dimensionality,
    "astro_case_study_table": astro_case_study_table,
    "astro_output_density": astro_output_density,
    "astro_gp_vs_mc": astro_gp_vs_mc,
    "batch_pipeline": batch_pipeline_speedup,
    "parallel_scaling": parallel_scaling,
    "shared_learning": shared_learning,
    "udf_overlap": udf_overlap,
    "udf_transport": udf_transport,
    "udf_pipeline": udf_pipeline,
    "auto_plan": auto_plan,
    "serving": serving_load,
    "fault_injection": fault_injection,
    "startup": startup_cost,
}


def _metric_verdict(
    metric: str, current, reference, max_regression: float
) -> dict:
    """Shared pass/regress/missing verdict logic for one gated ratio.

    A gated metric that cannot be found — in the fresh report *or* in the
    committed baseline — is reported with ``"missing": True`` (plus the
    legacy ``"skipped"`` reason).  Callers must treat that as a failure
    unless explicitly told otherwise: a renamed or dropped metric would
    otherwise disarm the gate forever while every run keeps reporting OK.
    """
    verdict = {
        "metric": metric,
        "current": current,
        "baseline": reference,
        "max_regression": max_regression,
        "regressed": False,
        "overridden": False,
    }
    if current is None or reference is None or reference <= 0:
        verdict["missing"] = True
        verdict["skipped"] = "metric missing from report or baseline"
        return verdict
    verdict["relative_change"] = (current - reference) / reference
    if current < (1.0 - max_regression) * reference:
        verdict["regressed"] = True
        if os.environ.get("REPRO_PERF_OVERRIDE") == "1":
            verdict["overridden"] = True
    return verdict


@dataclass(frozen=True)
class Gate:
    """One row of the perf-gate table: where a ratio lives and how it gates.

    Every gated number is a within-run, hardware-normalised ratio (or a
    sleep-dominated latency), so it transfers between the committed-baseline
    machine and CI runners; ``min_cpus`` marks the two that need real cores
    to overlap on.  The identity halves (bit-identity to the serial path)
    are enforced separately and non-overridably through ``identity_failures``.
    """

    #: Key of the verdict in the smoke report (``BENCH_*.json``).
    key: str
    #: Human-readable metric label recorded in the verdict.
    metric: str
    #: Where the number sits in a smoke artifact (nested dict keys).
    path: tuple[str, ...]
    #: Gate ``1 / value``: for a latency or a call ratio a *rise* regresses,
    #: and :func:`_metric_verdict` flags a *drop*.
    inverted: bool = False
    #: Compare against this fixed ceiling on the raw value at zero slack
    #: instead of the committed baseline — for a deterministic call-count
    #: quotient there is no hardware drift to normalise away.
    ceiling: float | None = None
    #: Cores required before the gate arms; on fewer the ratio collapses for
    #: hardware reasons the gate must not report as a code regression.
    min_cpus: int = 1


#: The perf gates, in evaluation order.
GATES: tuple[Gate, ...] = (
    Gate("gate", "batch_pipeline gp speedup", ("batch_pipeline", "speedup", "gp")),
    Gate("gate_dispatch_bound", "batch_pipeline gp speedup, dispatch-bound shape",
         ("batch_pipeline", "dispatch_bound", "speedup", "gp")),
    Gate("gate_in_contract", "batch_pipeline gp speedup, in-contract shape",
         ("batch_pipeline", "in_contract", "speedup", "gp")),
    Gate("gate_shared_learning",
         "shared-merge UDF-call efficiency at workers=4 (serial/shared calls)",
         ("shared_learning", "udf_calls_ratio_workers4"),
         inverted=True, ceiling=SHARED_CALLS_RATIO_LIMIT),
    Gate("gate_parallel", "parallel_scaling gp speedup at workers=4",
         ("parallel_scaling", "speedup_at_4", "gp", "speedup"),
         min_cpus=PARALLEL_GATE_MIN_CPUS),
    # Guards the store's synchronisation overhead: call savings must not be
    # bought by giving the committed wall-clock speedup back.
    Gate("gate_shared_speedup", "shared-merge wall-clock speedup at workers=4",
         ("shared_learning", "speedup_at_4"), min_cpus=PARALLEL_GATE_MIN_CPUS),
    Gate("gate_auto_plan", "auto-planned speedup over the naive default plan",
         ("auto_plan", "speedup")),
    Gate("gate_serving", "serving throughput scaling at 4 clients",
         ("serving", "scaling_at_4")),
    # On the smoke workload the p99 is dominated by the UDF service's
    # simulated 20 ms/request await, so the absolute number transfers
    # across runner hardware well enough to gate.
    Gate("gate_serving_p99", "serving 4-client p99 latency (inverse, 1/ms)",
         ("serving", "p99_at_4"), inverted=True),
)


def _at(artifact: dict, path: Sequence[str]):
    """The value at ``path`` (nested dict keys) in a smoke artifact, or ``None``."""
    node = artifact
    for key in path:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node


def _gated_value(gate: Gate, raw):
    """What :func:`_metric_verdict` compares: ``raw``, or its inverse."""
    if not gate.inverted:
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw <= 0:
        return None
    return 1.0 / float(raw)


def gate_verdict(gate: Gate, report: dict, baseline: dict, max_regression: float) -> dict:
    """One gate's verdict (see :func:`_metric_verdict` for the semantics)."""
    raw = _at(report, gate.path)
    current = _gated_value(gate, raw)
    if gate.ceiling is None:
        reference = _gated_value(gate, _at(baseline, gate.path))
        return _metric_verdict(gate.metric, current, reference, max_regression)
    verdict = _metric_verdict(gate.metric, current, 1.0 / gate.ceiling, 0.0)
    verdict["udf_calls_ratio"] = raw
    verdict["ratio_limit"] = gate.ceiling
    return verdict


def gated_verdicts(
    report: dict, baseline: dict, max_regression: float, cpu_count: int
) -> list[tuple[str, dict]]:
    """Every perf-gate verdict that applies on a ``cpu_count``-core machine.

    Walks :data:`GATES`, skipping the rows whose ``min_cpus`` the machine
    does not meet — the core-count guard that keeps single-core CI runners
    from disarming (or spuriously failing) the wall-clock scaling metrics.
    Returns ``(report_key, verdict)`` pairs in evaluation order.
    """
    return [
        (gate.key, gate_verdict(gate, report, baseline, max_regression))
        for gate in GATES
        if cpu_count >= gate.min_cpus
    ]


def _batch_report(*tables: ExperimentTable) -> dict:
    """The steady shape's report at the top level, the others nested by name."""
    shapes = {shape: smoke_report(table) for shape, table in zip(_SMOKE_BATCH_SHAPES, tables)}
    report = dict(shapes.pop("steady"))
    report.update(shapes)
    return report


def _show(value) -> str:
    """A report value as one readable line fragment."""
    if isinstance(value, float):
        return f"{value:.3g}"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}={_show(v)}" for k, v in value.items()) + "}"
    return str(value)


def _holds(value) -> bool:
    """An identity verdict holds: ``True``, or a non-empty dict of ``True``s."""
    if isinstance(value, dict):
        return bool(value) and all(v is True for v in value.values())
    return value is True


@dataclass(frozen=True)
class SmokeEntry:
    """One experiment of the CI smoke: its runs, report, headlines and identity checks."""

    #: Key of the experiment's report in the smoke artifact.
    key: str
    #: The experiment function.
    experiment: Callable[..., ExperimentTable]
    #: The kwargs of each run; every run prints its table.
    runs: tuple[dict, ...]
    #: Builds the report from the borrowed tables, then this entry's own.
    report: Callable[..., dict]
    #: Dotted report paths printed under the tables.
    headlines: tuple[str, ...] = ()
    #: Dotted report path -> what its failure means.  Each must read ``True``
    #: (every value of a per-mode dict); non-overridable, unlike a perf gate.
    identities: dict[str, str] = field(default_factory=dict)
    #: Earlier entries whose tables this entry's report also reads.
    borrows: tuple[str, ...] = ()


#: The CI smoke, in run order.  Each computation runs once: an identity
#: between two spellings that build the same executor state (window 1,
#: lookahead 1, auto ≡ its explicit plan) is pinned by tier-1 tests instead.
SMOKE: tuple[SmokeEntry, ...] = (
    SmokeEntry(
        "batch_pipeline", batch_pipeline_speedup, tuple(_SMOKE_BATCH_SHAPES.values()),
        _batch_report,
        headlines=("min_speedup", "dispatch_bound.min_speedup", "in_contract.min_speedup"),
        identities={
            f"{shape}identical_to_per_tuple": "batched diverged from the per-tuple path "
            "(values, bounds or UDF charge counters)"
            for shape in ("", "dispatch_bound.", "in_contract.")
        },
    ),
    SmokeEntry(
        "shared_learning", shared_learning, (_SMOKE_SHARED_KWARGS,), shared_learning_report,
        headlines=("udf_calls_ratio_workers4", "discard_calls_ratio_workers4",
                   "identical_at_1"),
        identities={"identical_at_1": 'merge="shared" at workers=1 diverged from the '
                    "serial batched path (samples, bounds or per-tuple UDF charges)"},
    ),
    SmokeEntry(
        "parallel_scaling", parallel_scaling, (_SMOKE_PARALLEL_KWARGS,), parallel_report,
        headlines=("speedup_at_4",), borrows=("shared_learning",),
    ),
    SmokeEntry("udf_overlap", udf_overlap, (_SMOKE_ASYNC_KWARGS,), async_report,
               headlines=("speedup_at_8",)),
    SmokeEntry(
        "udf_pipeline", udf_pipeline, (_SMOKE_PIPELINE_KWARGS,), pipeline_report,
        headlines=("speedup_at_4", "identical_above_1"),
        identities={"identical_above_1": "pipeline_lookahead>1 diverged from the async "
                    "trajectory"},
    ),
    SmokeEntry("udf_transport", udf_transport, (_SMOKE_TRANSPORT_KWARGS,),
               transport_report, headlines=("speedup_at_8",)),
    SmokeEntry("auto_plan", auto_plan, (_SMOKE_AUTO_PLAN_KWARGS,), auto_plan_report,
               headlines=("speedup",)),
    SmokeEntry(
        "serving", serving_load, (_SMOKE_SERVING_KWARGS,), serving_report,
        headlines=("scaling_at_4", "p99", "identical_to_serial"),
        identities={"identical_to_serial": "served query diverged from the direct "
                    "serial run"},
    ),
    SmokeEntry(
        "fault_injection", fault_injection, (_SMOKE_FAULTS_KWARGS,), faults_report,
        headlines=("identical", "injected", "calls_match"),
        identities={
            "identical": "a fault-injected run with retries diverged from the "
            "fault-free same-seed run",
            "calls_match": "a fault-injected run charged a different UDF call count "
            "than the fault-free run (failed attempts must charge nothing)",
            "fired": "a mode injected no faults: its recovery check is vacuous",
        },
    ),
    SmokeEntry("startup", startup_cost, ({"trials": 5},), startup_report,
               headlines=("import_s", "peak_rss_mb")),
)


def run_smoke(
    output_path: str,
    baseline_path: str,
    max_regression: float,
    allow_missing_baseline: bool = False,
) -> int:
    """Run the CI smoke benchmarks, write the JSON artifact, apply the gate.

    ``allow_missing_baseline`` downgrades a *missing gated metric* (absent
    from the fresh report or from the committed baseline artifact — e.g.
    mid-migration of the artifact schema) from a failure to a loud warning.
    Without it a missing metric fails the run: a silently disarmed gate
    reports OK forever.
    """
    parent = os.path.dirname(os.path.abspath(output_path))
    if not os.path.isdir(parent):
        print(f"error: cannot write {output_path}: directory {parent} does not exist",
              file=sys.stderr)
        return 2
    report: dict = {}
    tables: dict[str, list[ExperimentTable]] = {}
    identity_failures: list[str] = []
    for entry in SMOKE:
        tables[entry.key] = []
        for kwargs in entry.runs:
            started = time.perf_counter()
            table = entry.experiment(**kwargs)
            elapsed = time.perf_counter() - started
            tables[entry.key].append(table)
            if report or len(tables[entry.key]) > 1:
                print()
            print(table.to_text())
            print(f"(ran {entry.key} smoke in {elapsed:.1f} s)")
        borrowed = [table for key in entry.borrows for table in tables[key]]
        report[entry.key] = part = entry.report(*borrowed, *tables[entry.key])
        for path in entry.headlines:
            print(f"{entry.key}.{path}: {_show(_at(part, path.split('.')))}")
        identity_failures.extend(
            f"{entry.key}.{path} = {_show(_at(part, path.split('.')))}: {meaning}"
            for path, meaning in entry.identities.items()
            if not _holds(_at(part, path.split(".")))
        )

    if identity_failures:
        # These are correctness properties, not perf ratios, so they are
        # not label-overridable.
        for failure in identity_failures:
            print(f"IDENTITY CHECK FAILED: {failure}", file=sys.stderr)
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {output_path}")
        return 1

    exit_code = 0
    if os.path.isfile(baseline_path):
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        cpu_count = os.cpu_count() or 1
        verdicts = gated_verdicts(report, baseline, max_regression, cpu_count)
        if cpu_count < PARALLEL_GATE_MIN_CPUS:
            # Guarded, not disarmed: the skip is recorded in the artifact
            # and printed, so a fleet of small runners cannot silently
            # retire the metric.
            for key, name in (("gate_parallel", "parallel-scaling"),
                              ("gate_shared_speedup", "shared-merge speedup")):
                report[key] = {
                    "skipped": (f"{name} gate needs >= "
                                f"{PARALLEL_GATE_MIN_CPUS} cores, runner has "
                                f"{cpu_count}")
                }
                print(f"({name} perf gate skipped: {cpu_count} core(s) < "
                      f"{PARALLEL_GATE_MIN_CPUS})")
        for key, verdict in verdicts:
            report[key] = verdict
            metric = verdict["metric"]
            if verdict["regressed"]:
                change = verdict.get("relative_change", 0.0)
                message = (f"{metric} regressed {-change * 100.0:.0f}% vs baseline "
                           f"({verdict['current']:.2f}x vs {verdict['baseline']:.2f}x, "
                           f"limit {max_regression * 100.0:.0f}%)")
                if verdict["overridden"]:
                    print(f"PERF GATE: {message} — overridden via REPRO_PERF_OVERRIDE "
                          "(perf-regression-ok label)")
                else:
                    print(f"PERF GATE FAILED: {message}", file=sys.stderr)
                    print("(apply the perf-regression-ok PR label to override, and "
                          "refresh BENCH_baseline.json)", file=sys.stderr)
                    exit_code = 1
            elif verdict.get("missing"):
                # A silently disabled gate would report OK forever: a renamed
                # metric must fail the run, not skip it.  Baseline-format
                # migrations pass --allow-missing-baseline explicitly (and
                # refresh the committed artifact in the same change).
                if allow_missing_baseline:
                    print(f"PERF GATE SKIPPED (allowed): {verdict['skipped']} — "
                          f"{metric} was NOT checked against {baseline_path}",
                          file=sys.stderr)
                else:
                    print(f"PERF GATE FAILED: {verdict['skipped']} — {metric} "
                          f"could not be compared against {baseline_path}; pass "
                          "--allow-missing-baseline if this is an intentional "
                          "artifact-schema migration", file=sys.stderr)
                    exit_code = 1
            else:
                print(f"perf gate OK [{metric}] vs {baseline_path}")
    else:
        report["gate"] = {"skipped": f"no baseline at {baseline_path}"}
        print(f"(no baseline at {baseline_path}; perf gate skipped)")

    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {output_path}")
    return exit_code


def run(names: list[str], full_scale: bool) -> list[tuple[str, ExperimentTable, float]]:
    """Run the selected experiments and return (name, table, seconds) triples."""
    results = []
    for name in names:
        factory = EXPERIMENTS[name]
        kwargs = {} if full_scale else _SCALED_OVERRIDES.get(name, {})
        started = time.perf_counter()
        table = factory(**kwargs)
        elapsed = time.perf_counter() - started
        results.append((name, table, elapsed))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--full", action="store_true",
                        help="run with the experiments' full-scale default parameters")
    parser.add_argument("--only", nargs="+", metavar="NAME", choices=sorted(EXPERIMENTS),
                        help="run only the named experiments")
    parser.add_argument("--output", metavar="PATH",
                        help="also write the combined report to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the smoke benchmarks (the SMOKE registry) and "
                             "write a JSON artifact")
    parser.add_argument("--smoke-output", metavar="PATH", default="BENCH_smoke.json",
                        help="where --smoke writes its JSON artifact")
    parser.add_argument("--baseline", metavar="PATH", default="BENCH_baseline.json",
                        help="committed baseline artifact the smoke run is diffed "
                             "against (skipped when the file does not exist)")
    parser.add_argument("--max-regression", type=float, default=DEFAULT_MAX_REGRESSION,
                        help="relative gp-speedup drop that fails the perf gate "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--allow-missing-baseline", action="store_true",
                        help="do not fail the smoke run when the gated metric is "
                             "missing from the report or baseline (artifact-schema "
                             "migrations only; refresh the baseline in the same "
                             "change)")
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke(args.smoke_output, args.baseline, args.max_regression,
                         allow_missing_baseline=args.allow_missing_baseline)

    names = args.only if args.only else list(EXPERIMENTS)
    results = run(names, full_scale=args.full)

    lines: list[str] = []
    for name, table, elapsed in results:
        lines.append(table.to_text())
        lines.append(f"(ran {name} in {elapsed:.1f} s)")
        lines.append("")
    report = "\n".join(lines)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
