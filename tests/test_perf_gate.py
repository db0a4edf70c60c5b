"""The CI perf gate's verdict logic (``repro.bench.run_all``).

The gates are rows of one declarative table (``GATES``): report key,
metric label, artifact path, inverted?, fixed ceiling?, ``min_cpus``.
Contracts under test, per row:

* a healthy comparison yields a pass/regress verdict with the relative
  change recorded;
* a gated metric missing from either side is flagged ``missing`` — the
  smoke driver turns that into a *failure* unless
  ``--allow-missing-baseline`` is passed, because a renamed metric would
  otherwise disarm the gate forever while reporting OK;
* the override environment variable only applies to genuine regressions;
* the parallel-scaling gp speedup at ``workers=4`` is gated the same way,
  but only on machines with at least ``PARALLEL_GATE_MIN_CPUS`` cores —
  the guard that keeps single-core runners from turning a hardware
  limitation into a reported code regression (ROADMAP item);
* the serving gates — 4-client throughput scaling and 4-client p99
  latency (gated as its inverse, so a latency *increase* regresses) —
  arm on every runner, because the smoke serving workload overlaps
  awaited service latency rather than CPU;
* the batched speedup at the dispatch-bound and in-contract shapes is
  gated like the batch gate (within-run hardware-normalised ratios, armed
  everywhere); the batched ≡ per-tuple bit-identity half lives in the
  non-overridable ``identity_failures`` list, not in a gate verdict;
* the auto-planned-over-naive-default speedup is gated the same way and
  arms everywhere (the smoke auto-plan workload overlaps awaited service
  latency); its auto≡explicit identity half is likewise enforced through
  ``identity_failures``;
* the shared-learning UDF-calls ratio gates against the *fixed*
  ``SHARED_CALLS_RATIO_LIMIT`` ceiling on every runner (a same-invocation
  count quotient — no hardware drift), while the shared-merge wall-clock
  speedup is CPU-gated like the parallel one; the ``workers=1``
  bit-identity half lives in ``identity_failures``;
* the smoke registry (``SMOKE``) keeps one non-overridable identity check
  per pair of different code paths, and a failing one fails the run.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentTable
from repro.bench.run_all import (
    DEFAULT_MAX_REGRESSION,
    GATES,
    PARALLEL_GATE_MIN_CPUS,
    SHARED_CALLS_RATIO_LIMIT,
    SMOKE,
    SmokeEntry,
    gate_verdict,
    gated_verdicts,
    main,
    run_smoke,
)

BY_KEY = {gate.key: gate for gate in GATES}
#: Gates that diff against the committed baseline / the fixed-ceiling one.
BASELINE_GATES = [gate for gate in GATES if gate.ceiling is None]
CEILING_GATE = BY_KEY["gate_shared_learning"]


def _artifact(gate, value):
    """A smoke artifact holding ``value`` at the gate's path (and nothing else)."""
    node = value
    for key in reversed(gate.path):
        node = {key: node}
    return node


def _worse(gate, healthy):
    """A value well past the 25% margin on the gate's bad side."""
    return healthy * 2.0 if gate.inverted else healthy / 2.0


def test_the_table_lists_every_gate_once_in_evaluation_order():
    assert [gate.key for gate in GATES] == [
        "gate", "gate_dispatch_bound", "gate_in_contract", "gate_shared_learning",
        "gate_parallel", "gate_shared_speedup", "gate_auto_plan", "gate_serving",
        "gate_serving_p99",
    ]
    # The two extra batch_pipeline shapes sit next to the headline ratio.
    assert BY_KEY["gate_dispatch_bound"].path == (
        "batch_pipeline", "dispatch_bound", "speedup", "gp")
    assert BY_KEY["gate_in_contract"].path == ("batch_pipeline", "in_contract", "speedup", "gp")
    assert BY_KEY["gate"].metric == "batch_pipeline gp speedup"
    assert BY_KEY["gate_parallel"].metric == "parallel_scaling gp speedup at workers=4"
    assert BY_KEY["gate_serving"].metric == "serving throughput scaling at 4 clients"
    assert {gate.key for gate in GATES if gate.min_cpus > 1} == {
        "gate_parallel", "gate_shared_speedup",
    }
    assert {gate.key for gate in GATES if gate.inverted} == {
        "gate_shared_learning", "gate_serving_p99",
    }


@pytest.mark.parametrize("gate", BASELINE_GATES, ids=lambda gate: gate.key)
class TestBaselineGates:
    """Every baseline-diffed row: pass / regress / override / missing."""

    def test_pass_records_relative_change(self, gate):
        verdict = gate_verdict(gate, _artifact(gate, 2.5), _artifact(gate, 2.5), 0.25)
        assert verdict["regressed"] is False
        assert "missing" not in verdict
        assert verdict["relative_change"] == 0.0
        assert verdict["metric"] == gate.metric

    def test_regression_detected(self, gate):
        verdict = gate_verdict(
            gate, _artifact(gate, _worse(gate, 2.5)), _artifact(gate, 2.5), 0.25
        )
        assert verdict["regressed"] is True
        assert verdict["overridden"] is False

    def test_improvement_passes(self, gate):
        better = 2.5 / 1.25 if gate.inverted else 2.5 * 1.25
        verdict = gate_verdict(gate, _artifact(gate, better), _artifact(gate, 2.5), 0.25)
        assert verdict["regressed"] is False

    def test_override_env_applies_to_regressions(self, gate, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_OVERRIDE", "1")
        verdict = gate_verdict(
            gate, _artifact(gate, _worse(gate, 2.5)), _artifact(gate, 2.5), 0.25
        )
        assert verdict["regressed"] is True
        assert verdict["overridden"] is True

    @pytest.mark.parametrize(
        "report_value, baseline_value",
        [
            ("absent", 2.5),      # metric renamed/dropped from the report
            (2.5, "absent"),      # baseline lacks the metric
            (None, 2.5),          # null metric
            (2.5, 0.0),           # degenerate baseline
        ],
    )
    def test_missing_metric_is_flagged_not_silently_ok(
        self, gate, report_value, baseline_value
    ):
        report = {} if report_value == "absent" else _artifact(gate, report_value)
        baseline = {} if baseline_value == "absent" else _artifact(gate, baseline_value)
        verdict = gate_verdict(gate, report, baseline, DEFAULT_MAX_REGRESSION)
        assert verdict.get("missing") is True
        assert verdict["regressed"] is False
        assert "skipped" in verdict


def test_truncated_artifact_path_is_missing_not_a_crash():
    # The parallel headline sits four keys deep; a scalar where a dict is
    # expected must read as missing.
    gate = BY_KEY["gate_parallel"]
    report = {"parallel_scaling": {"speedup_at_4": {"gp": 2.5}}}
    assert gate_verdict(gate, report, _artifact(gate, 2.5), 0.25).get("missing") is True


class TestFixedCeilingGate:
    """The shared-merge calls ratio gates against a fixed ceiling with zero
    slack — no committed baseline involved."""

    def test_ratio_at_the_ceiling_passes(self):
        verdict = gate_verdict(
            CEILING_GATE, _artifact(CEILING_GATE, SHARED_CALLS_RATIO_LIMIT), {},
            DEFAULT_MAX_REGRESSION,
        )
        assert verdict["regressed"] is False
        assert verdict["udf_calls_ratio"] == SHARED_CALLS_RATIO_LIMIT
        assert verdict["ratio_limit"] == SHARED_CALLS_RATIO_LIMIT

    def test_ratio_above_the_ceiling_regresses_regardless_of_margin(self):
        # max_regression is deliberately ignored: the ceiling is absolute.
        verdict = gate_verdict(CEILING_GATE, _artifact(CEILING_GATE, 1.3), {}, 0.9)
        assert verdict["regressed"] is True
        assert verdict["overridden"] is False

    def test_override_env_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_OVERRIDE", "1")
        verdict = gate_verdict(CEILING_GATE, _artifact(CEILING_GATE, 2.0), {}, 0.25)
        assert verdict["regressed"] is True
        assert verdict["overridden"] is True

    @pytest.mark.parametrize("report", [{}, _artifact(CEILING_GATE, None),
                                        _artifact(CEILING_GATE, 0.0)])
    def test_missing_or_degenerate_ratio_is_flagged(self, report):
        verdict = gate_verdict(CEILING_GATE, report, {}, 0.25)
        assert verdict.get("missing") is True
        assert verdict["regressed"] is False


class TestCoreCountGuard:
    """The parallel and shared-speedup gates only arm with enough real
    cores to scale on; the three batch, shared-calls-ratio, auto-plan and
    serving gates arm everywhere."""

    ALWAYS_ON = ["gate", "gate_dispatch_bound", "gate_in_contract", "gate_shared_learning",
                 "gate_auto_plan", "gate_serving", "gate_serving_p99"]

    @staticmethod
    def _report(batch, parallel):
        return {**_artifact(BY_KEY["gate"], batch),
                **_artifact(BY_KEY["gate_parallel"], parallel)}

    @pytest.mark.parametrize("cpu_count", [1, PARALLEL_GATE_MIN_CPUS - 1])
    def test_runner_below_the_threshold_skips_the_scaling_gates(self, cpu_count):
        report = self._report(2.0, 2.5)
        verdicts = gated_verdicts(report, report, 0.25, cpu_count=cpu_count)
        assert [key for key, _ in verdicts] == self.ALWAYS_ON

    def test_multi_core_runner_gates_parallel_too(self):
        verdicts = gated_verdicts(
            self._report(2.0, 1.0), self._report(2.0, 2.5), 0.25,
            cpu_count=PARALLEL_GATE_MIN_CPUS,
        )
        assert [key for key, _ in verdicts] == [gate.key for gate in GATES]
        by_key = dict(verdicts)
        assert by_key["gate"]["regressed"] is False
        assert by_key["gate_parallel"]["regressed"] is True


class TestCliFlag:
    def test_allow_missing_baseline_flag_parses(self, tmp_path, monkeypatch):
        """The flag exists and routes into run_smoke (smoke itself is heavy,
        so only the argparse wiring is exercised: an unknown flag would make
        parse_args exit with code 2 before any benchmark runs)."""
        import argparse

        recorded = {}

        def fake_run_smoke(output, baseline, max_regression, allow_missing_baseline=False):
            recorded["allow"] = allow_missing_baseline
            return 0

        monkeypatch.setattr("repro.bench.run_all.run_smoke", fake_run_smoke)
        assert main(["--smoke", "--allow-missing-baseline"]) == 0
        assert recorded["allow"] is True
        recorded.clear()
        assert main(["--smoke"]) == 0
        assert recorded["allow"] is False

        with pytest.raises(SystemExit):
            argparse.ArgumentParser().parse_args(["--no-such-flag"])


class TestSmokeRegistry:
    def test_every_cross_path_identity_is_still_checked(self):
        identities = {(entry.key, path) for entry in SMOKE for path in entry.identities}
        assert identities == {
            ("batch_pipeline", "identical_to_per_tuple"),
            ("batch_pipeline", "dispatch_bound.identical_to_per_tuple"),
            ("batch_pipeline", "in_contract.identical_to_per_tuple"),
            ("shared_learning", "identical_at_1"),
            ("udf_pipeline", "identical_above_1"),
            ("serving", "identical_to_serial"),
            ("fault_injection", "identical"),
            ("fault_injection", "calls_match"),
            ("fault_injection", "fired"),
        }

    def test_every_gate_reads_a_report_the_smoke_writes(self):
        assert {gate.path[0] for gate in GATES} <= {entry.key for entry in SMOKE}

    @staticmethod
    def _entries(verdicts):
        def experiment(**kwargs):
            table = ExperimentTable("fake", "-", "-")
            table.add_row(**kwargs)
            return table

        def report(*tables):
            return {"verdict": {t.rows[0]["mode"]: t.rows[0]["ok"] for t in tables}}

        return (SmokeEntry("fake", experiment,
                           tuple({"mode": m, "ok": ok} for m, ok in verdicts.items()),
                           report, headlines=("verdict",),
                           identities={"verdict": "a fake mode diverged"}),)

    @pytest.mark.parametrize("verdicts, code", [
        ({"a": True, "b": True}, 0), ({"a": True, "b": False}, 1), ({}, 1),
    ])
    def test_an_identity_failure_fails_the_run(self, verdicts, code, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setattr("repro.bench.run_all.SMOKE", self._entries(verdicts))
        output = tmp_path / "smoke.json"
        assert run_smoke(str(output), str(tmp_path / "none.json"), 0.25) == code
        assert output.exists()
        assert ("IDENTITY CHECK FAILED: fake.verdict" in capsys.readouterr().err) == bool(code)
