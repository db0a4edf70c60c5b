"""One workload in one process: set-up, timed section, audit, one JSON line.

Started by :mod:`perfbench.run` with the BLAS thread pins already in
the environment, so they are in force before numpy is first imported here
and are inherited by the pool workers the ``sharded`` workload forks.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def _cpu_seconds() -> float:
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0  # Linux reports KiB


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_start_method(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed section; 0 sets up and stops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--spawned-at", type=float, default=time.time(),
                        help="epoch seconds when the launcher started this process")
    args = parser.parse_args(argv)

    from perfbench import audit, metrics
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Harness

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # Before set-up, so references captured while objects are built are
        # wrapped too; recording itself starts with the timed section.
        tracer.install()
    workload.setup()
    setup_s = time.time() - args.spawned_at
    if args.seconds <= 0:
        workload.teardown()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    harness = Harness(tracer)
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    if tracer is not None:
        tracer.enabled = True
    try:
        workload.run(args.seconds, harness)
    finally:
        if tracer is not None:
            tracer.enabled = False
        harness.timed_wall = time.perf_counter() - started
        workload.teardown()
    cpu_s = _cpu_seconds() - cpu_before
    peak_rss_mb = _peak_rss_mb()  # before the audit allocates its truth samples

    items = harness.audit["a"] + harness.audit["b"]
    audited, violations = audit.audit(items, args.seed)
    attempted = sum(r.ops for r in harness.records)
    failed = sum(r.failed for r in harness.records)

    if tracer is not None:
        values = metrics.per_layer(harness, tracer, cpu_s, audited, violations)
        units = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(harness, setup_s, peak_rss_mb)
        units = metrics.END_TO_END

    OUT_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write_jsonl(str(OUT_DIR / f"trace-{args.workload}.jsonl"))
        tracer.uninstall()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "sizes": workload.size,
        "kinds": workload.kinds, "environment": environment(),
        "timed_wall_s": harness.timed_wall, "audited": audited, "violations": violations,
        "records": [
            {"kind": r.kind, "index": r.index, "ops": r.ops, "failed": r.failed,
             "wall_s": r.wall, "udf_calls": r.udf_calls, "verdicts": r.verdicts,
             "digest": r.digest}
            for r in harness.records
        ],
    }
    (OUT_DIR / f"detail-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail))

    print(json.dumps({
        "correct": audit.passes(audited, violations),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        # For `python -m perfbench`; the launcher drops it from the driver's line.
        "udf_calls": {kind: [r.udf_calls for r in harness.records if r.kind == kind]
                      for kind in ("a", "b")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
