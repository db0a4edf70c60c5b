"""Profile-driven auto-planning versus the naive default plan."""

from __future__ import annotations

from repro.bench import auto_plan, auto_plan_report


def test_auto_plan(once):
    table = once(
        lambda: auto_plan(
            n_tuples=4,
            service_latency=5e-3,
            n_samples=120,
        )
    )
    print()
    print(table.to_text())

    report = auto_plan_report(table)
    # Shape check 1: one row per mode, naive first (the speedup reference).
    assert [r["mode"] for r in table.rows] == ["naive", "auto"]

    # Shape check 2: overlapping the declared service latency never
    # pathologically regresses.  (The quantitative >= 2x target on the
    # 20 ms/request service is tracked by the CI smoke artifact; auto ≡ its
    # explicit plan is pinned by tests/test_auto_plan.py.)
    assert report["speedup"] > 0.8
