"""Core framework: the paper's primary contribution (S2–S10).

Public surface: approximation metrics, accuracy requirements and budgets,
the Monte-Carlo baseline, the GP emulator and offline Algorithm 2, error
bounds and confidence bands, local inference, online tuning and retraining,
selection-predicate filtering, the complete online algorithm OLGAPRO, and
the hybrid GP/MC executor.
"""

from repro.core.accuracy import (
    AccuracyRequirement,
    ErrorBudget,
    ks_epsilon_for_samples,
    required_mc_samples,
)
from repro.core.confidence_bands import (
    SimultaneousBand,
    band_z_value,
    expected_euler_characteristic,
    lipschitz_killing_curvatures,
)
from repro.core.emulator import GPEmulator, GPOutputResult, emulate_output, offline_gp_output
from repro.core.error_bounds import (
    CombinedErrorBound,
    EnvelopeOutputs,
    build_envelope_outputs,
    combine_bounds,
    gp_discrepancy_bound,
    gp_discrepancy_bound_naive,
    gp_ks_bound,
    interval_probability_bounds,
)
from repro.core.filtering import (
    FilterDecision,
    SelectionPredicate,
    filtering_decision,
    hoeffding_half_width,
    upper_bound_decision,
)
from repro.core.hybrid import HybridDecision, HybridExecutor, rule_based_choice
from repro.core.local_inference import (
    LocalInferenceEngine,
    LocalInferenceResult,
    global_inference,
    initial_search_radius,
    kernel_at_distance,
    omitted_weight_bound,
)
from repro.core.mc_baseline import (
    FilteredMCResult,
    MCResult,
    mc_sample_count,
    monte_carlo_output,
    monte_carlo_with_filter,
)
from repro.core.metrics import (
    discrepancy,
    discrepancy_against_cdf,
    interval_probability_error,
    ks_distance,
    lambda_discrepancy,
    lambda_discrepancy_naive,
)
from repro.core.olgapro import OLGAPRO, OnlineTupleResult
from repro.core.online_tuning import (
    LargestVarianceStrategy,
    OptimalGreedyStrategy,
    RandomStrategy,
    TuningStrategy,
    make_strategy,
)
from repro.core.retraining import (
    EagerRetrain,
    NeverRetrain,
    RetrainDecision,
    RetrainingPolicy,
    ThresholdRetrain,
    make_policy,
)

__all__ = [
    # metrics
    "discrepancy",
    "ks_distance",
    "lambda_discrepancy",
    "lambda_discrepancy_naive",
    "discrepancy_against_cdf",
    "interval_probability_error",
    # accuracy
    "AccuracyRequirement",
    "ErrorBudget",
    "required_mc_samples",
    "ks_epsilon_for_samples",
    # MC baseline
    "MCResult",
    "FilteredMCResult",
    "monte_carlo_output",
    "monte_carlo_with_filter",
    "mc_sample_count",
    # filtering
    "SelectionPredicate",
    "FilterDecision",
    "filtering_decision",
    "hoeffding_half_width",
    "upper_bound_decision",
    # emulator
    "GPEmulator",
    "GPOutputResult",
    "emulate_output",
    "offline_gp_output",
    # bands and bounds
    "SimultaneousBand",
    "band_z_value",
    "expected_euler_characteristic",
    "lipschitz_killing_curvatures",
    "EnvelopeOutputs",
    "build_envelope_outputs",
    "gp_discrepancy_bound",
    "gp_discrepancy_bound_naive",
    "gp_ks_bound",
    "interval_probability_bounds",
    "CombinedErrorBound",
    "combine_bounds",
    # local inference
    "LocalInferenceEngine",
    "LocalInferenceResult",
    "global_inference",
    "omitted_weight_bound",
    "initial_search_radius",
    "kernel_at_distance",
    # tuning / retraining
    "TuningStrategy",
    "LargestVarianceStrategy",
    "RandomStrategy",
    "OptimalGreedyStrategy",
    "make_strategy",
    "RetrainingPolicy",
    "RetrainDecision",
    "NeverRetrain",
    "EagerRetrain",
    "ThresholdRetrain",
    "make_policy",
    # online algorithm and hybrid
    "OLGAPRO",
    "OnlineTupleResult",
    "HybridExecutor",
    "HybridDecision",
    "rule_based_choice",
]
