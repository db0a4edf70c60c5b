"""What ``import repro`` and the query paths load, read in a fresh interpreter.

``scipy.stats`` and ``scipy.integrate`` (with the ndimage / interpolate /
fft tree ``scipy.stats`` pulls in) cost about half a second and 20 MB at
start-up, and only :class:`~repro.distributions.continuous.Gamma`,
:class:`~repro.distributions.continuous.TruncatedGaussian` and the astro
UDFs' integrals use them.  Those import them where they use them, so
importing the package and running a query leave both unloaded; the first
use loads them.  The test session itself has imported both long before a
test runs, hence the subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench.experiments_startup import startup_cost, startup_report

LAZY = ("scipy.stats", "scipy.integrate")

_PROBE = """
import json, sys

LAZY = {lazy!r}
loaded = {{}}

def checkpoint(name):
    loaded[name] = [module for module in LAZY if module in sys.modules]

import repro
from repro.bench.experiments_startup import startup_cost, startup_report
checkpoint("import repro")
import repro.engine
checkpoint("import repro.engine")

import numpy as np
from repro.core.accuracy import AccuracyRequirement
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf

def query(name, engine, n_tuples, seed):
    udf = reference_function(name, simulated_eval_time=0.0)
    dists = list(input_stream(workload_for_udf(udf), n_tuples,
                              random_state=np.random.default_rng(seed)))
    return engine.compute_with_plan(udf, dists, ExecutionPlan(batch_size=2))

requirement = AccuracyRequirement(epsilon=0.2, delta=0.1)
warm = UDFExecutionEngine(strategy="gp", requirement=requirement, random_state=1)
query("F1", warm, 3, 0)  # trains the model
query("F1", warm, 3, 1)  # reads it warm
checkpoint("warm F1 query")
cold = UDFExecutionEngine(strategy="gp", requirement=requirement, random_state=2)
query("F3", cold, 3, 2)
checkpoint("cold F3 query")

from repro.distributions.continuous import TruncatedGaussian
TruncatedGaussian(0.5, 0.1, 0.0, 1.0)
checkpoint("TruncatedGaussian")
repro.galage_udf()(np.array([0.3]))
checkpoint("galage_udf call")
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded() -> dict[str, list[str]]:
    """The lazily loaded submodules present at each checkpoint of the probe."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE.format(lazy=LAZY)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "checkpoint", ["import repro", "import repro.engine", "warm F1 query", "cold F3 query"]
)
def test_start_up_and_queries_leave_scipy_stats_and_integrate_unloaded(loaded, checkpoint):
    assert loaded[checkpoint] == []


def test_truncated_gaussian_loads_scipy_stats_on_first_use(loaded):
    assert "scipy.stats" in loaded["TruncatedGaussian"]


def test_galage_call_loads_scipy_integrate_on_first_use(loaded):
    assert "scipy.integrate" in loaded["galage_udf call"]


def test_smoke_startup_row_reports_the_minimum_of_its_trials():
    table = startup_cost(trials=2)
    report = startup_report(table)
    assert len(table.rows) == 2
    assert report["import_s"] == min(table.column("import_s")) > 0.0
    assert report["peak_rss_mb"] == min(table.column("peak_rss_mb")) > 0.0
