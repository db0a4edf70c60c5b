"""Unit tests for the experiment harness (result tables, identity check, timed runs)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.experiments_auto import auto_plan
from repro.bench.harness import ExperimentTable, outputs_identical, summarize
from repro.core.accuracy import AccuracyRequirement
from repro.engine.executor import UDFExecutionEngine
from repro.exceptions import ReproError
from repro.rng import as_generator
from repro.udf.synthetic import async_service_udf
from repro.workloads.generators import input_stream, workload_for_udf


class TestExperimentTable:
    def make(self):
        table = ExperimentTable(
            experiment_id="expt_test",
            paper_artifact="Figure 0",
            description="test table",
        )
        table.add_row(approach="gp", time_ms=1.5)
        table.add_row(approach="mc", time_ms=30.0)
        return table

    def test_columns_and_column_access(self):
        table = self.make()
        assert table.columns == ["approach", "time_ms"]
        assert table.column("approach") == ["gp", "mc"]
        with pytest.raises(ReproError):
            table.column("missing")

    def test_row_key_consistency_enforced(self):
        table = self.make()
        with pytest.raises(ReproError):
            table.add_row(approach="gp", runtime=1.0)

    def test_filtered(self):
        table = self.make()
        subset = table.filtered(approach="gp")
        assert len(subset.rows) == 1
        assert subset.rows[0]["time_ms"] == 1.5

    def test_to_text_contains_values(self):
        text = self.make().to_text()
        assert "expt_test" in text
        assert "Figure 0" in text
        assert "gp" in text and "mc" in text

    def test_to_text_empty_table(self):
        table = ExperimentTable("x", "y", "z")
        assert "(no rows)" in table.to_text()


class TestSummarize:
    def test_statistics(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            summarize([])


class TestPhaseTimings:
    def test_accumulates_and_totals(self):
        from repro.bench.harness import PhaseTimings

        timings = PhaseTimings()
        timings.add("sampling", 0.5)
        timings.add("sampling", 0.25)
        timings.add("inference", 1.0)
        assert timings.get("sampling") == pytest.approx(0.75)
        assert timings.get("refinement") == 0.0
        assert timings.total == pytest.approx(1.75)

    def test_measure_context_manager(self):
        from repro.bench.harness import PhaseTimings

        timings = PhaseTimings()
        with timings.measure("inference"):
            pass
        assert timings.get("inference") > 0.0

    def test_rejects_negative_and_resets(self):
        from repro.bench.harness import PhaseTimings

        timings = PhaseTimings()
        with pytest.raises(ReproError):
            timings.add("sampling", -1.0)
        timings.add("sampling", 2.0)
        assert timings.as_row(prefix="t_") == {"t_sampling": 2000.0}
        timings.reset()
        assert timings.total == 0.0

    def test_merge_accumulates_per_phase(self):
        from repro.bench.harness import PhaseTimings

        parent = PhaseTimings()
        parent.add("sampling", 1.0)
        worker = PhaseTimings()
        worker.add("sampling", 0.5)
        worker.add("refinement", 2.0)
        returned = parent.merge(worker)
        assert returned is parent
        assert parent.get("sampling") == pytest.approx(1.5)
        assert parent.get("refinement") == pytest.approx(2.0)
        # The merged-from accumulator is untouched.
        assert worker.get("sampling") == pytest.approx(0.5)

    def test_merge_accepts_plain_mapping_and_iadd(self):
        from repro.bench.harness import PhaseTimings

        timings = PhaseTimings()
        timings.merge({"inference": 0.25})
        other = PhaseTimings()
        other.add("inference", 0.75)
        timings += other
        assert timings.get("inference") == pytest.approx(1.0)

    def test_merge_negative_guard_leaves_state_unchanged(self):
        from repro.bench.harness import PhaseTimings

        timings = PhaseTimings()
        timings.add("sampling", 1.0)
        with pytest.raises(ReproError):
            timings.merge({"sampling": 0.5, "inference": -0.1})
        # All-or-nothing: the valid "sampling" entry was not applied either.
        assert timings.get("sampling") == pytest.approx(1.0)
        assert timings.get("inference") == 0.0


class TestOutputsIdentical:
    @staticmethod
    def output(samples, bound=0.1, calls=3):
        return SimpleNamespace(
            distribution=SimpleNamespace(samples=np.asarray(samples, dtype=float)),
            error_bound=bound,
            udf_calls=calls,
        )

    def test_samples_and_bounds_must_match(self):
        a = [self.output([1.0, 2.0])]
        assert outputs_identical(a, [self.output([1.0, 2.0])])
        assert not outputs_identical(a, [self.output([1.0, 2.5])])
        assert not outputs_identical(a, [self.output([1.0, 2.0], bound=0.2)])
        assert not outputs_identical(a, a + a)
        assert not outputs_identical(a, None)

    def test_charges_are_compared_only_on_request(self):
        a, b = [self.output([1.0], calls=3)], [self.output([1.0], calls=4)]
        assert outputs_identical(a, b)
        assert not outputs_identical(a, b, charges=True)


def test_auto_plan_reports_every_call_the_udf_was_paid_for():
    """The auto row's ``udf_calls`` is ``udf.call_count``: every call the UDF was paid for.

    The auto plan picks no lookahead, so nothing is prefetched ahead:
    the calls it pays are exactly the calls its tuples are charged.
    """
    table = auto_plan(n_tuples=4, service_latency=1e-2, epsilon=0.12, n_samples=120,
                      random_state=7, stream_seed=3)
    auto_row = next(row for row in table.rows if row["mode"] == "auto")

    udf = async_service_udf("F4", latency=1e-2, random_state=7)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=AccuracyRequirement(epsilon=0.12, delta=0.05),
        random_state=7, n_samples=120,
    )
    dists = list(input_stream(workload_for_udf(udf), 4, random_state=as_generator(3)))
    outputs = engine.compute_with_plan(udf, dists, plan="auto").outputs
    assert udf.call_count == sum(output.udf_calls for output in outputs)
    assert auto_row["udf_calls"] == udf.call_count
