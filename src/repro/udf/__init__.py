"""User-defined-function substrate (S11, S12).

Public surface: the instrumented black-box :class:`UDF` wrapper, synthetic
Gaussian-mixture functions of controlled shape (F1–F4 and the
dimensionality-sweep family), the astrophysics cosmology UDFs of the §6.4
case study, and the catalog — the one name-to-UDF store, whose profiles
the query engine's auto-planner consults.
"""

from repro.udf.astro import (
    Cosmology,
    angdist_udf,
    angular_separation_deg,
    case_study_udfs,
    comove_vol_udf,
    distance_modulus_udf,
    galage_udf,
    lookback_time_udf,
    sky_distance_udf,
)
from repro.udf.base import UDF, AsyncUDF, as_udf
from repro.udf.catalog import (
    LATENCY_CLASSES,
    UDFCatalog,
    UDFProfile,
    canonical_udf_name,
    default_catalog,
    latency_class_for,
)
from repro.udf.faults import (
    FaultInjectingAsyncUDF,
    FaultInjectingUDF,
    FaultSchedule,
)
from repro.udf.retry import RetryPolicy
from repro.udf.synthetic import (
    GaussianMixtureFunction,
    MixtureSpec,
    high_dimensional_function,
    make_mixture_udf,
    reference_function,
    reference_suite,
)

__all__ = [
    "UDF",
    "AsyncUDF",
    "as_udf",
    "RetryPolicy",
    "FaultSchedule",
    "FaultInjectingUDF",
    "FaultInjectingAsyncUDF",
    "UDFCatalog",
    "UDFProfile",
    "LATENCY_CLASSES",
    "canonical_udf_name",
    "default_catalog",
    "latency_class_for",
    "GaussianMixtureFunction",
    "MixtureSpec",
    "make_mixture_udf",
    "reference_function",
    "reference_suite",
    "high_dimensional_function",
    "Cosmology",
    "galage_udf",
    "comove_vol_udf",
    "angdist_udf",
    "sky_distance_udf",
    "lookback_time_udf",
    "distance_modulus_udf",
    "angular_separation_deg",
    "case_study_udfs",
]
