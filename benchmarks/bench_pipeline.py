"""Cross-tuple pipelined versus within-tuple async refinement (real cost)."""

from __future__ import annotations

from repro.bench import pipeline_report, udf_pipeline


def test_udf_pipeline(once):
    table = once(
        lambda: udf_pipeline(
            lookahead_list=(4,),
            inflight=2,
            n_tuples=8,
            batch_size=8,
            real_eval_time=1e-2,
            n_samples=120,
        )
    )
    print()
    print(table.to_text())

    report = pipeline_report(table)
    # Shape check 1: the async baseline plus one row per lookahead.
    assert [r["mode"] for r in table.rows] == ["async", "pipeline"]
    assert set(report["speedup"]) == {"4"}

    # Shape check 2 (correctness, not perf): deeper lookaheads commit the
    # async trajectory bit for bit.  (lookahead=1 ≡ serial is pinned by
    # tests/test_pipeline.py.)
    assert report["identical_above_1"] is True

    # Shape check 3: pipelining a genuinely slow black box never
    # pathologically regresses.  (The quantitative >= 1.5x target at
    # lookahead=4 is tracked by the CI smoke artifact at full scale.)
    assert report["speedup"]["4"] > 0.8
