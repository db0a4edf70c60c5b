"""Before/after comparison of two reports written by ``python -m perfbench run``.

Rules (the choosing-metrics guide, sections 6 and 8): a metric regressed when
B's median is worse than A's by more than the bound ``BENCHMARK.json`` fixes;
where A's own run-to-run spread (quartile distance over median) is wider than
that bound the pair is *unresolved*, not unchanged, unless every run of B
reads better than every run of A.  A claimed gain needs B to win at least
nine tenths of the seed-matched pairs and the medians to differ by more than
A's quartile distance.  Every ratio is printed with its base.

UDF calls, the paper's primary currency, are a count and not a timing: they
are compared over the repetitions both reports completed, against
:data:`UDF_CALL_BOUNDS`.  A workload one report lacks counts as regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Two reports can be compared only when they agree on these.
SETTINGS = ("seed", "runs", "seconds", "scale")
#: The issue's absolute bound on ``certain_share``.  ``BENCHMARK.json`` must give
#: the driver a relative bound wider than the spread between seeds (other data,
#: other share); here A and B ran the same seeds, so that spread cancels.
ABSOLUTE_BOUNDS = {"certain_share": 0.02}
#: Share by which the UDF calls of a workload may rise.  Exact where every
#: operation is deterministic: there the UDF cost is on the accounting clock
#: or hidden behind concurrency, and no timing would show a rise.
UDF_CALL_BOUNDS = {
    "warm_scan": 0.0, "cold_slow_udf": 0.02, "sharded": 0.05, "serve_open_loop": 0.0,
}


def benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(ok | regressed | unresolved, relative change of the median, worse > 0)``."""
    if not b:
        return "regressed", 0.0
    if not a or not statistics.median(a):
        return "unresolved", 0.0
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse = sign * (statistics.median(b) - base) / base
    if quartile_distance(a) / base > bound:
        b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
        return ("ok" if b_always_better else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def claim_met(a: list[float], b: list[float], better: str) -> tuple[bool, str]:
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    ties = sum(x == y for x, y in pairs)
    gap = abs(statistics.median(b) - statistics.median(a))
    met = (
        len(pairs) >= 10
        and wins >= 0.9 * (len(pairs) - ties)
        and sign * (statistics.median(b) - statistics.median(a)) < 0
        and gap > quartile_distance(a)
    )
    return met, (f"{wins} of {len(pairs)} pairs won ({ties} ties), median gap {gap:.4g} "
                 f"vs A's quartile distance {quartile_distance(a):.4g}")


def failed_share(entry: dict) -> float:
    """Failed over attempted operations; nothing attempted is everything failed."""
    attempted = sum(entry["attempted"])
    return sum(entry["failed"]) / attempted if attempted else 1.0


def udf_calls(a: dict, b: dict, kind: str) -> tuple[int, int]:
    """Calls issued by A and by B over the repetitions of ``kind`` both completed.

    Runs are matched by seed, repetitions by position: a run lasts a fixed
    time, so the faster side completes more repetitions of the same inputs.
    """
    total_a = total_b = 0
    for run_a, run_b in zip(a["udf_calls"], b["udf_calls"]):
        shared = min(len(run_a[kind]), len(run_b[kind]))
        total_a += sum(run_a[kind][:shared])
        total_b += sum(run_b[kind][:shared])
    return total_a, total_b


def main(path_a: str, path_b: str, claims: list[str]) -> int:
    spec = {m["name"]: m for m in benchmark()["end_to_end"]}
    report_a, report_b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in SETTINGS:
        if report_a[key] != report_b[key]:
            print(f"not comparable: {key} is {report_a[key]!r} in A and {report_b[key]!r} in B",
                  file=sys.stderr)
            return 1
    a, b = report_a["workloads"], report_b["workloads"]
    bad = False
    print(f"{'workload':16} {'metric':14} {'A':>11} {'B':>11} "
          f"{'change (base A)':>16} {'bound':>6}  verdict")

    def row(workload: str, name: str, va: float, vb: float, change: str, bound: float,
            state: str) -> None:
        nonlocal bad
        bad = bad or state == "regressed"
        print(f"{workload:16} {name:14} {va:11.5g} {vb:11.5g} {change:>16} {bound:6.1%}  {state}")

    for workload in list(a) + [w for w in b if w not in a]:
        if workload not in a or workload not in b:
            bad = True
            print(f"{workload:16} missing from {'A' if workload not in a else 'B'}  regressed")
            continue
        for name, metric in spec.items():
            va = a[workload]["end_to_end"][name]["values"]
            vb = b[workload]["end_to_end"][name]["values"]
            bound = metric["bound"]
            if name in ABSOLUTE_BOUNDS and va:
                bound = min(bound, ABSOLUTE_BOUNDS[name] / statistics.median(va))
            state, worse = verdict(va, vb, metric["better"], bound)
            row(workload, name, statistics.median(va or [0.0]), statistics.median(vb or [0.0]),
                f"{worse:+.1%}w", bound, state)
        for kind in ("a", "b"):
            calls_a, calls_b = udf_calls(a[workload], b[workload], kind)
            bound = UDF_CALL_BOUNDS[workload]
            rose = calls_b > calls_a * (1.0 + bound)
            change = f"{(calls_b - calls_a) / calls_a:+.1%}w" if calls_a else ""
            row(workload, f"udf_calls_{kind}", calls_a, calls_b, change, bound,
                "regressed" if rose else "ok")
        failed_a, failed_b = failed_share(a[workload]), failed_share(b[workload])
        row(workload, "failed_share", failed_a, failed_b, "", 0.0,
            "regressed" if failed_b > failed_a else "ok")
    for claim in claims:
        name, _, workload = claim.partition("@")
        met, why = claim_met(a[workload]["end_to_end"][name]["values"],
                             b[workload]["end_to_end"][name]["values"], spec[name]["better"])
        bad = bad or not met
        print(f"claim {claim}: {'met' if met else 'NOT met'} ({why})")
    print("timings are medians over the runs, udf_calls are sums over the repetitions both "
          "completed; change is signed so that positive is worse ('w'), relative to A")
    return 1 if bad else 0
