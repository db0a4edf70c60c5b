"""Benchmark harness and experiment implementations (substrate S15).

One function per paper table / figure; each returns an
:class:`~repro.bench.harness.ExperimentTable`.  The pytest-benchmark modules
under ``benchmarks/`` are thin wrappers over these functions.
"""

from repro.bench.experiments_astro import (
    astro_case_study_table,
    astro_gp_vs_mc,
    astro_output_density,
)
from repro.bench.experiments_async import (
    async_report,
    transport_report,
    udf_overlap,
    udf_transport,
)
from repro.bench.experiments_auto import auto_plan, auto_plan_report
from repro.bench.experiments_batch import batch_pipeline_speedup, smoke_report
from repro.bench.experiments_faults import fault_injection, faults_report
from repro.bench.experiments_parallel import (
    parallel_report,
    parallel_scaling,
    shared_learning,
    shared_learning_report,
)
from repro.bench.experiments_pipeline import pipeline_report, udf_pipeline
from repro.bench.experiments_profiles import (
    all_profiles,
    profile1_function_fitting,
    profile2_error_bound,
    profile3_error_allocation,
)
from repro.bench.experiments_serving import serving_load, serving_report
from repro.bench.experiments_startup import startup_cost, startup_report
from repro.bench.experiments_synthetic import (
    expt1_local_inference,
    expt2_online_tuning,
    expt3_retraining,
    expt4_accuracy_requirement,
    expt5_eval_time,
    expt6_filtering,
    expt7_dimensionality,
)
from repro.bench.harness import ExperimentTable, PhaseTimings, print_tables, summarize

__all__ = [
    "ExperimentTable",
    "PhaseTimings",
    "print_tables",
    "summarize",
    "batch_pipeline_speedup",
    "smoke_report",
    "parallel_scaling",
    "parallel_report",
    "shared_learning",
    "shared_learning_report",
    "udf_overlap",
    "async_report",
    "udf_transport",
    "transport_report",
    "udf_pipeline",
    "pipeline_report",
    "auto_plan",
    "auto_plan_report",
    "serving_load",
    "serving_report",
    "startup_cost",
    "startup_report",
    "fault_injection",
    "faults_report",
    "profile1_function_fitting",
    "profile2_error_bound",
    "profile3_error_allocation",
    "all_profiles",
    "expt1_local_inference",
    "expt2_online_tuning",
    "expt3_retraining",
    "expt4_accuracy_requirement",
    "expt5_eval_time",
    "expt6_filtering",
    "expt7_dimensionality",
    "astro_case_study_table",
    "astro_output_density",
    "astro_gp_vs_mc",
]
