"""Async-overlapped versus serial batched refinement (real-cost workload)."""

from __future__ import annotations

from repro.bench import async_report, udf_overlap


def test_udf_overlap(once):
    table = once(
        lambda: udf_overlap(
            inflight_list=(4,),
            n_tuples=4,
            batch_size=4,
            real_eval_time=5e-3,
            n_samples=120,
        )
    )
    print()
    print(table.to_text())

    report = async_report(table)
    # Shape check 1: one serial row plus one async row per in-flight bound.
    assert [r["mode"] for r in table.rows] == ["serial", "async"]
    assert set(report["speedup"]) == {"4"}

    # Shape check 2: overlapping a genuinely slow black box never
    # pathologically regresses.  (The quantitative >= 2x target at
    # inflight=8 is tracked by the CI smoke artifact at full scale; the
    # inflight=1 ≡ serial identity is pinned by tests/test_async_exec.py.)
    assert report["speedup"]["4"] > 0.8
