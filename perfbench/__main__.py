"""``python -m perfbench run`` and ``python -m perfbench compare``.

``run`` is the whole benchmark in one command: for every workload an
end-to-end pass (tracing off) per seed, then a traced pass on the first seed,
which gives the per-layer metrics, the tracing overhead, and the proof that
the wrappers observe without perturbing.  It prints every metric as
``workload  metric  value  unit`` and exits non-zero if any audit fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from perfbench import compare
from perfbench.run import WORKLOAD_NAMES, WorkerFailed, measure

HERE = Path(__file__).resolve().parent
MAX_TRACE_OVERHEAD = 0.15


def _detail(workload: str, trace: int) -> dict:
    return json.loads((HERE / "out" / f"detail-{workload}-trace{trace}.json").read_text())


def perturbation(untraced: dict, traced: dict) -> list[str]:
    """Differences between the two passes on what must repeat bit for bit.

    Both passes run for the same time, not the same count, so only the
    repetitions both completed are compared; a repetition whose trajectory is
    timing-dependent carries no digest and is skipped.
    """
    theirs = {(r["kind"], r["index"]): r for r in traced["records"]}
    problems = []
    for ours in untraced["records"]:
        other = theirs.get((ours["kind"], ours["index"]))
        if other is None or not ours["digest"] or not other["digest"]:
            continue
        for what in ("digest", "verdicts", "udf_calls"):
            if ours[what] != other[what]:
                problems.append(
                    f"{ours['kind']}{ours['index']}: {what} {ours[what]!r} != {other[what]!r}"
                )
    return problems


def run(seed: int, runs: int, out: str | None, scale: str = "full") -> int:
    """The whole benchmark; ``scale`` is "tiny" only in the benchmark's own tests.

    Every report of one scale has the same workloads, sizes and run length,
    so two of them differ in seed and runs at most, and `compare` checks those.
    """
    seconds = compare.benchmark()["run_seconds"] if scale == "full" else 1
    report: dict = {"seed": seed, "runs": runs, "seconds": seconds, "scale": scale,
                    "workloads": {}}
    ok = True
    for workload in WORKLOAD_NAMES:
        entry: dict = {"end_to_end": {}, "per_layer": {}, "attempted": [], "failed": [],
                       "correct": [], "udf_calls": []}
        for k in range(runs):
            result = measure(workload, seed + k, seconds, 0, scale)
            for name, metric in result["metrics"].items():
                slot = entry["end_to_end"].setdefault(name, {"unit": metric["unit"], "values": []})
                slot["values"].append(metric["value"])
            for key in ("attempted", "failed", "correct", "udf_calls"):
                entry[key].append(result[key])
            if k == 0:  # the next seed overwrites the detail file
                untraced = _detail(workload, 0)
        report.setdefault("environment", untraced["environment"])
        entry["sizes"], entry["kinds"] = untraced["sizes"], untraced["kinds"]
        traced = measure(workload, seed, seconds, 1, scale)
        entry["per_layer"] = traced["metrics"]
        entry["traced_correct"] = traced["correct"]
        entry["perturbation"] = perturbation(untraced, _detail(workload, 1))
        # Against the median of the untraced runs: a single pair of runs
        # differs by more than the wrappers cost.
        entry["trace_overhead_share"] = statistics.mean(
            traced["metrics"][f"trace.op_{kind}_ms"]["value"]
            / statistics.median(entry["end_to_end"][f"op_{kind}_ms"]["values"])
            for kind in ("a", "b")
        ) - 1.0
        report["workloads"][workload] = entry

        for name, slot in entry["end_to_end"].items():
            values = slot["values"]
            print(f"{workload}  {name}  {statistics.median(values):.6g}  {slot['unit']}"
                  f"  (median of {len(values)})")
        print(f"{workload}  attempted  {sum(entry['attempted'])}  count")
        print(f"{workload}  failed  {sum(entry['failed'])}  count")
        for name, metric in entry["per_layer"].items():
            print(f"{workload}  {name}  {metric['value']:.6g}  {metric['unit']}")
        print(f"{workload}  trace.overhead_share  {entry['trace_overhead_share']:.4f}  share")
        for problem in entry["perturbation"]:
            print(f"{workload}  PERTURBED  {problem}")
        if entry["trace_overhead_share"] > MAX_TRACE_OVERHEAD:
            print(f"{workload}  NOTE  tracing overhead above {MAX_TRACE_OVERHEAD:.0%}: "
                  "coarsen the leaf wrappers")
        ok = ok and all(entry["correct"]) and entry["traced_correct"] \
            and not sum(entry["failed"]) and not entry["perturbation"]
    if out:
        Path(out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run the benchmark")
    run_parser.add_argument("--seed", type=int, default=1)
    run_parser.add_argument("--runs", type=int, default=1,
                            help="end-to-end passes per workload, on seeds seed, seed+1, ...")
    run_parser.add_argument("--out", help="write the report here as JSON")
    compare_parser = commands.add_parser("compare", help="compare two reports of `run`")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")
    compare_parser.add_argument("--claim", action="append", default=[],
                                metavar="METRIC@WORKLOAD", help="a gain B is claimed to show")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(args.seed, args.runs, args.out)
        return compare.main(args.a, args.b, args.claim)
    except WorkerFailed as error:
        print(error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
