"""The command of ``BENCHMARK.json``: one workload, one run, one JSON line.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``

A workload always runs in a process of its own, started here with the BLAS
thread pins in its environment: on a shared 2-core machine default
multi-threaded BLAS made every workload 2.4x slower in wall-clock and 8x in
CPU, which measures the scheduler, not the program.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("warm_scan", "cold_slow_udf", "sharded", "serve_open_loop")
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Extra set-up-only processes per end-to-end run; ``setup_s`` is the median
#: of these and the measuring process, so one cold file cache does not show.
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170
#: What the driver reads; a worker's line carries more for `python -m perfbench`.
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


class WorkerFailed(RuntimeError):
    """A workload process hung, exited non-zero or printed no result."""


def run_worker(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """Run one workload process to completion; its last stdout line, parsed."""
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    command = [
        sys.executable, "-m", "perfbench.worker", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", scale, "--spawned-at", repr(time.time()),
    ]
    # A session of its own, so that a hung worker is stopped together with the
    # pool and manager processes it forked.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException as error:  # hung, or the launcher itself was interrupted
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if not isinstance(error, subprocess.TimeoutExpired):
            raise
        raise WorkerFailed(f"{workload}: worker still running after {WORKER_TIMEOUT_S} s") from None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited with code {process.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, scale: str = "full") -> dict:
    """One run as the driver sees it: the result object of the last stdout line."""
    result = run_worker(workload, seed, seconds, trace, scale)
    if not trace:
        setups = [result["metrics"]["setup_s"]["value"]] + [
            run_worker(workload, seed, 0, 0, scale)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except WorkerFailed as error:
        print(error, file=sys.stderr)
        return 1
    print(json.dumps({key: result[key] for key in RESULT_KEYS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
