"""Metric names, the percentile rule, and agreement with BENCHMARK.json."""

import re

import pytest

from perfbench import compare, metrics
from perfbench.run import WORKLOAD_NAMES
from perfbench.workloads import WORKLOADS, OpRecord


@pytest.mark.parametrize("n, expected", [
    (0, 50.0), (5, 50.0), (19, 50.0), (20, 50.0), (33, 100 * 23 / 33), (40, 75.0),
    (100, 90.0), (1000, 99.0),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it(n, expected):
    assert metrics.tail_percentile(n) == pytest.approx(expected)
    if n >= 20:
        beyond = n - n * metrics.tail_percentile(n) / 100.0
        assert beyond == pytest.approx(10.0)


def test_percentile_interpolates():
    assert metrics.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0) == 4.0
    assert metrics.percentile([], 90.0) == 0.0


def test_batch_op_times_are_summed_wall_over_summed_operations():
    records = [OpRecord("a", i, 10, 0, wall) for i, wall in enumerate([0.010, 0.030, 0.020])]
    records.append(OpRecord("a", 3, 10, 10, 9.0))  # failed outright: no timing
    records.append(OpRecord("b", 0, 4, 0, 0.002))
    assert metrics.op_times(records, latency=False) == {"op_a_ms": 2.0, "op_b_ms": 0.5}


def test_latency_op_time_is_the_median_request():
    records = [OpRecord("a", i, 1, 0, wall) for i, wall in enumerate([0.1, 0.9, 0.2])]
    records.append(OpRecord("b", 0, 4, 0, 2.0))
    assert metrics.op_times(records, latency=True) == {"op_a_ms": 200.0, "op_b_ms": 500.0}


def test_certain_share_ignores_excluded_outputs():
    records = [OpRecord("a", 0, 8, 0, 1.0, verdicts={"certain": 3, "possible": 1, "excluded": 4})]
    assert metrics.certain_share(records) == 0.75


def test_metric_names_use_the_contract_charset():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for names in (metrics.END_TO_END, metrics.PER_LAYER):
        for metric, its_unit in names.items():
            assert name.fullmatch(metric), metric
            assert unit.fullmatch(its_unit), (metric, its_unit)
    assert len(metrics.END_TO_END) <= 16 and len(metrics.PER_LAYER) <= 128
    assert not set(metrics.END_TO_END) & set(metrics.PER_LAYER)


def test_benchmark_json_lists_exactly_what_a_run_prints():
    spec = compare.benchmark()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert spec["paths"] == ["perfbench"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 12) <= 3420  # set-up probes, audit, start-up


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, [v * 1.05 for v in steady], "lower", 0.10)[0] == "ok"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "lower", 0.10)[0] == "regressed"
    assert compare.verdict(steady, [v * 0.80 for v in steady], "higher", 0.10)[0] == "regressed"
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, [v / 10 for v in noisy], "lower", 0.10)[0] == "ok"
    assert compare.claim_met(steady, [v * 0.8 for v in steady], "lower")[0]
    assert not compare.claim_met(steady, [v * 0.995 for v in steady], "lower")[0]
    assert not compare.claim_met(steady[:3], [v * 0.5 for v in steady[:3]], "lower")[0]
    assert compare.verdict(steady, [], "lower", 0.10)[0] == "regressed"  # B has no runs
    assert compare.verdict([], steady, "lower", 0.10)[0] == "unresolved"


def test_udf_calls_are_summed_over_the_repetitions_both_sides_completed():
    a = {"udf_calls": [{"a": [5, 0, 2], "b": [7]}, {"a": [1, 1], "b": [3]}]}
    b = {"udf_calls": [{"a": [5, 0], "b": [9]}, {"a": [1, 1, 4], "b": [3]}]}  # faster in run 2
    assert compare.udf_calls(a, b, "a") == (7, 7)
    assert compare.udf_calls(a, b, "b") == (10, 12)


def test_nothing_attempted_counts_as_everything_failed():
    assert compare.failed_share({"attempted": [10, 10], "failed": [1, 0]}) == 0.05
    assert compare.failed_share({"attempted": [], "failed": []}) == 1.0
