"""Start-up cost: what ``import repro`` takes in a fresh interpreter.

Process start-up is an end-to-end layer of its own — every worker process,
CLI call and service pays it before the first query — and the paper's cost
model (§4) prices none of it, so it is pure overhead.  Each trial starts a
new interpreter, times ``import repro`` inside it and reads the process's
peak resident set right after the import.  That is Linux's ``VmHWM``, not
``ru_maxrss``: Linux carries the launching process's peak across ``exec``
into ``ru_maxrss``, so under a large parent it reads the parent.  The smoke
reports the minimum over the trials of each, and gates neither.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.bench.harness import ExperimentTable

_PROBE = """
import json, resource, time
started = time.perf_counter()
import repro
seconds = time.perf_counter() - started
try:
    with open("/proc/self/status") as status:
        kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"import_s": seconds, "peak_rss_mb": kib / 1024.0}))
"""


def startup_cost(trials: int = 5) -> ExperimentTable:
    """Seconds and peak resident MB of ``import repro``, one fresh interpreter per trial."""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    table = ExperimentTable(
        experiment_id="startup",
        paper_artifact="-",
        description="import repro in a fresh interpreter: seconds, and peak RSS after it",
    )
    for trial in range(trials):
        completed = subprocess.run(
            [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        table.add_row(trial=trial, **json.loads(completed.stdout.strip().splitlines()[-1]))
    return table


def startup_report(table: ExperimentTable) -> dict:
    """JSON-ready summary of a :func:`startup_cost` run: the minimum of each column."""
    return {
        "experiment_id": table.experiment_id,
        "description": table.description,
        "rows": list(table.rows),
        "import_s": min(table.column("import_s")),
        "peak_rss_mb": min(table.column("peak_rss_mb")),
    }
