"""A seconds-long end-to-end smoke of all four workloads: schema only.

Each run is the real command of ``BENCHMARK.json`` at ``--scale tiny``; the
numbers mean nothing at that size, the shape of the output is the contract.
The last test is `python -m perfbench run` at the same scale, then `compare`
of its report with itself and with copies one thing was changed in.
"""

import copy
import json
import subprocess
import sys

import pytest

from perfbench import __main__ as cli
from perfbench import compare, metrics
from perfbench.run import WORKLOAD_NAMES
from perfbench.tests.conftest import ROOT


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_one_well_formed_result(workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # Not asserted true: a tiny run audits ~15 outputs, where one legitimate
    # 1-in-20 miss already exceeds delta.
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        spans = (ROOT / "perfbench" / "out" / f"trace-{workload}.jsonl").read_text().splitlines()
        assert spans and set(json.loads(spans[0])) == {
            "id", "name", "layer", "start", "end", "parent", "thread", "trace_id", "leaves"}


def test_unknown_workload_is_refused_without_a_result():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nope", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_whole_benchmark_at_tiny_scale_then_compare(tmp_path, capsys):
    out = tmp_path / "a.json"
    code = cli.run(seed=3, runs=1, out=str(out), scale="tiny")
    printed = capsys.readouterr().out
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == list(WORKLOAD_NAMES)
    assert (report["seed"], report["runs"], report["scale"]) == (3, 1, "tiny")
    for workload, entry in report["workloads"].items():
        assert entry["perturbation"] == [] and sum(entry["failed"]) == 0
        assert {n: len(m["values"]) for n, m in entry["end_to_end"].items()} == dict.fromkeys(
            metrics.END_TO_END, 1)
        assert set(entry["per_layer"]) == set(metrics.PER_LAYER)
        assert [set(calls) for calls in entry["udf_calls"]] == [{"a", "b"}]
        assert f"{workload}  trace.overhead_share" in printed
    audits = [e["traced_correct"] and all(e["correct"]) for e in report["workloads"].values()]
    assert code == (0 if all(audits) else 1)

    assert compare.main(str(out), str(out), []) == 0

    def compared_with(change) -> int:
        other = copy.deepcopy(report)
        change(other)
        path = tmp_path / "b.json"
        path.write_text(json.dumps(other))
        return compare.main(str(out), str(path), [])

    def one_more_call(other):  # no timing moves: warm_scan's UDF cost is accounting only
        other["workloads"]["warm_scan"]["udf_calls"][0]["a"][0] += 1

    assert compared_with(one_more_call) == 1
    assert compared_with(lambda other: other["workloads"].pop("sharded")) == 1
    assert compared_with(lambda other: other.update(seed=4)) == 1
    assert compared_with(lambda other: other.update(scale="full", seconds=24)) == 1
