"""Synthetic-workload experiments of Section 6.2–6.3 (Expts 1–7).

Each function reproduces one figure of the paper's Fig. 5 panel using the
controlled Gaussian-mixture UDFs.  Default sizes are scaled down so the
whole suite runs in minutes on a laptop; pass larger parameters for a
full-scale run.  UDF evaluation cost is charged through the simulated
per-call cost of :class:`repro.udf.base.UDF`, so sweeping the evaluation
time ``T`` does not require actually sleeping.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.bench.harness import ExperimentTable
from repro.core.accuracy import AccuracyRequirement
from repro.core.confidence_bands import band_z_value
from repro.core.emulator import GPEmulator
from repro.core.error_bounds import build_envelope_outputs, gp_discrepancy_bound
from repro.core.local_inference import LocalInferenceEngine, global_inference
from repro.core.mc_baseline import monte_carlo_output, monte_carlo_with_filter
from repro.core.metrics import lambda_discrepancy
from repro.core.olgapro import OLGAPRO
from repro.core.online_tuning import make_strategy
from repro.core.retraining import EagerRetrain, NeverRetrain, ThresholdRetrain
from repro.engine.executor import UDFExecutionEngine
from repro.engine.plan import ExecutionPlan
from repro.index.bounding_box import BoundingBox
from repro.rng import as_generator, derive_seed
from repro.udf.synthetic import high_dimensional_function, reference_function
from repro.workloads.generators import (
    input_stream,
    selectivity_predicate,
    true_output_distribution,
    workload_for_udf,
)

DEFAULT_FUNCTIONS = ("F1", "F2", "F3", "F4")


# ---------------------------------------------------------------------------
# Expt 1: local inference (Fig. 5c, 5d)
# ---------------------------------------------------------------------------

def expt1_local_inference(
    gamma_fractions: Sequence[float] = (0.001, 0.005, 0.02, 0.05, 0.1, 0.2),
    function_name: str = "F4",
    n_training: int = 200,
    n_tuples: int = 6,
    n_samples: int = 800,
    n_truth_samples: int = 10000,
    random_state=3,
) -> ExperimentTable:
    """Fig. 5(c, d): accuracy and runtime of local versus global inference.

    Local rows also run the paper's R-tree retrieval
    (:meth:`LocalInferenceEngine.select_points` over ``emulator.index``) as
    the reference for the engine's vectorised retrieval:
    ``rtree_retrieval_ms`` is the reference's retrieval time alone (``time_ms``
    is the engine's whole inference), ``same_selection`` the share of tuples
    on which both selected the same training points.
    """
    rng = as_generator(random_state)
    udf = reference_function(function_name)
    emulator = GPEmulator(udf)
    emulator.train_initial(n_training, design="random", random_state=rng)
    spec = workload_for_udf(udf)
    output_range = float(np.max(emulator.gp.y_train) - np.min(emulator.gp.y_train))
    lam = 0.01 * output_range

    tuples = list(input_stream(spec, n_tuples, random_state=rng))
    sample_sets = [dist.sample(n_samples, random_state=rng) for dist in tuples]
    truths = [
        true_output_distribution(udf, dist, n_truth_samples, random_state=rng)
        for dist in tuples
    ]

    table = ExperimentTable(
        experiment_id="expt1_local_inference",
        paper_artifact="Figure 5(c) and 5(d)",
        description="Local vs global inference: error bound, actual error, runtime",
    )

    index = emulator.index  # built here, outside every timed region

    def evaluate(inference_fn, method: str, gamma_fraction: float, engine=None) -> None:
        errors, bounds, elapsed, selected = [], [], [], []
        rtree_elapsed, agree = [], []
        for samples, truth in zip(sample_sets, truths):
            box = BoundingBox.from_points(samples)
            started = time.perf_counter()
            result = inference_fn(samples)
            elapsed.append(time.perf_counter() - started)
            if engine is not None:
                started = time.perf_counter()
                reference, _, _ = engine.select_points(emulator.gp, index, box, samples=samples)
                rtree_elapsed.append(time.perf_counter() - started)
                agree.append(np.array_equal(reference, result.selected_indices))
            band = band_z_value(
                emulator.gp.kernel,
                box,
                alpha=0.05,
                n_points=samples.shape[0],
            )
            envelope = build_envelope_outputs(result.means, result.stds, band.z_value)
            bounds.append(gp_discrepancy_bound(envelope, lam))
            errors.append(lambda_discrepancy(envelope.y_hat, truth, lam))
            selected.append(result.n_selected)
        table.add_row(
            method=method,
            gamma_fraction=float(gamma_fraction),
            error_bound=float(np.mean(bounds)),
            actual_error=float(np.mean(errors)),
            time_ms=float(np.mean(elapsed) * 1000.0),
            mean_points_used=float(np.mean(selected)),
            rtree_retrieval_ms=float(np.mean(rtree_elapsed) * 1000.0) if engine else 0.0,
            same_selection=float(np.mean(agree)) if engine else 1.0,
        )

    evaluate(lambda s: global_inference(emulator.gp, s), "global", 0.0)
    for fraction in gamma_fractions:
        engine = LocalInferenceEngine(gamma_threshold=fraction * output_range)
        evaluate(
            lambda s, engine=engine: engine.predict(emulator.gp, s),
            "local",
            fraction,
            engine=engine,
        )
    return table


# ---------------------------------------------------------------------------
# Expt 2: online tuning strategies (Fig. 5e)
# ---------------------------------------------------------------------------

def expt2_online_tuning(
    strategies: Sequence[str] = ("random", "largest_variance", "optimal_greedy"),
    function_name: str = "F4",
    n_tuples: int = 30,
    initial_points: int = 25,
    n_samples: int = 400,
    max_points_per_tuple: int = 10,
    epsilon: float = 0.1,
    random_state=4,
) -> ExperimentTable:
    """Fig. 5(e): cumulative training points added by each tuning heuristic."""
    table = ExperimentTable(
        experiment_id="expt2_online_tuning",
        paper_artifact="Figure 5(e)",
        description="Accumulated number of training points added over the input stream",
    )
    for strategy_name in strategies:
        rng = as_generator(random_state)
        udf = reference_function(function_name)
        strategy_kwargs = {"max_candidates": 15} if strategy_name == "optimal_greedy" else {}
        processor = OLGAPRO(
            udf,
            AccuracyRequirement(epsilon=epsilon, delta=0.05),
            tuning_strategy=make_strategy(strategy_name, **strategy_kwargs),
            initial_training_points=initial_points,
            max_points_per_tuple=max_points_per_tuple,
            n_samples=n_samples,
            random_state=rng,
        )
        spec = workload_for_udf(udf)
        cumulative = 0
        for tuple_index, dist in enumerate(input_stream(spec, n_tuples, random_state=rng)):
            result = processor.process(dist)
            cumulative += result.points_added
            table.add_row(
                strategy=strategy_name,
                tuple_index=int(tuple_index + 1),
                cumulative_points_added=int(cumulative),
            )
    return table


# ---------------------------------------------------------------------------
# Expt 3: retraining strategies (Fig. 5f, 5g)
# ---------------------------------------------------------------------------

def expt3_retraining(
    thresholds: Sequence[float] = (0.01, 0.05, 0.2, 1.0),
    function_name: str = "F4",
    n_tuples: int = 15,
    n_samples: int = 600,
    epsilon: float = 0.1,
    n_truth_samples: int = 8000,
    random_state=5,
) -> ExperimentTable:
    """Fig. 5(f, g): accuracy and runtime of the retraining strategies."""
    table = ExperimentTable(
        experiment_id="expt3_retraining",
        paper_artifact="Figure 5(f) and 5(g)",
        description="Eager / threshold / no retraining: realised error, runtime, retrain count",
    )
    policies = [("eager", None, EagerRetrain()), ("never", None, NeverRetrain())]
    policies.extend(
        ("threshold", threshold, ThresholdRetrain(threshold=threshold))
        for threshold in thresholds
    )
    for policy_name, threshold, policy in policies:
        rng = as_generator(random_state)
        udf = reference_function(function_name, simulated_eval_time=1e-3)
        processor = OLGAPRO(
            udf,
            AccuracyRequirement(epsilon=epsilon, delta=0.05),
            retraining_policy=policy,
            initial_training_points=20,
            n_samples=n_samples,
            random_state=rng,
        )
        spec = workload_for_udf(udf)
        times, errors = [], []
        n_retrains = 0
        for dist in input_stream(spec, n_tuples, random_state=rng):
            result = processor.process(dist)
            times.append(result.charged_time)
            n_retrains += int(result.retrained)
            truth = true_output_distribution(udf, dist, n_truth_samples, random_state=rng)
            errors.append(
                lambda_discrepancy(result.distribution, truth, processor.lambda_value())
            )
        table.add_row(
            policy=policy_name,
            threshold=float(threshold) if threshold is not None else float("nan"),
            mean_actual_error=float(np.mean(errors)),
            total_time_ms=float(np.sum(times) * 1000.0),
            n_retrains=int(n_retrains),
        )
    return table


# ---------------------------------------------------------------------------
# Expt 4: varying the accuracy requirement epsilon (Fig. 5h)
# ---------------------------------------------------------------------------

def expt4_accuracy_requirement(
    epsilons: Sequence[float] = (0.05, 0.1, 0.15, 0.2),
    function_names: Sequence[str] = DEFAULT_FUNCTIONS,
    n_tuples: int = 8,
    eval_time: float = 1e-3,
    input_family: str = "gaussian",
    random_state=6,
) -> ExperimentTable:
    """Fig. 5(h): per-tuple runtime of OLGAPRO as ε varies, for F1–F4."""
    table = ExperimentTable(
        experiment_id="expt4_accuracy_requirement",
        paper_artifact="Figure 5(h)",
        description="Mean per-tuple charged time of OLGAPRO versus the accuracy requirement",
    )
    for name in function_names:
        for epsilon in epsilons:
            rng = as_generator(random_state)
            udf = reference_function(name, simulated_eval_time=eval_time)
            processor = OLGAPRO(
                udf,
                AccuracyRequirement(epsilon=epsilon, delta=0.05),
                random_state=rng,
            )
            spec = workload_for_udf(udf)
            spec = type(spec)(
                dimension=spec.dimension,
                family=input_family,  # type: ignore[arg-type]
                domain_low=spec.domain_low,
                domain_high=spec.domain_high,
                input_std=spec.input_std,
            )
            times = []
            points = []
            for dist in input_stream(spec, n_tuples, random_state=rng):
                result = processor.process(dist)
                times.append(result.charged_time)
                points.append(result.points_added)
            table.add_row(
                function=name,
                epsilon=float(epsilon),
                mean_time_ms=float(np.mean(times) * 1000.0),
                mean_points_added=float(np.mean(points)),
                n_training_final=int(processor.n_training),
            )
    return table


# ---------------------------------------------------------------------------
# Expt 5: varying the UDF evaluation time T (Fig. 5i)
# ---------------------------------------------------------------------------

def expt5_eval_time(
    eval_times: Sequence[float] = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1),
    function_names: Sequence[str] = DEFAULT_FUNCTIONS,
    n_tuples: int = 6,
    epsilon: float = 0.1,
    random_state=7,
) -> ExperimentTable:
    """Fig. 5(i): GP versus MC runtime as the UDF evaluation time grows."""
    table = ExperimentTable(
        experiment_id="expt5_eval_time",
        paper_artifact="Figure 5(i)",
        description="Mean per-tuple charged time of GP and MC versus UDF evaluation time",
    )
    requirement = AccuracyRequirement(epsilon=epsilon, delta=0.05)
    for eval_time in eval_times:
        # MC: the cost model is dominated by m UDF calls per tuple.
        rng = as_generator(random_state)
        udf_mc = reference_function("F1", simulated_eval_time=eval_time)
        spec = workload_for_udf(udf_mc)
        mc_times = []
        for dist in input_stream(spec, n_tuples, random_state=rng):
            result = monte_carlo_output(udf_mc, dist, requirement=requirement, random_state=rng)
            mc_times.append(result.charged_time)
        table.add_row(
            approach="mc",
            function="any",
            eval_time_ms=float(eval_time * 1000.0),
            mean_time_ms=float(np.mean(mc_times) * 1000.0),
        )
        # GP: one processor per function; evaluation cost only matters while
        # the emulator is still collecting training points.
        for name in function_names:
            rng = as_generator(random_state)
            udf_gp = reference_function(name, simulated_eval_time=eval_time)
            processor = OLGAPRO(udf_gp, requirement, random_state=rng)
            gp_times = []
            for dist in input_stream(workload_for_udf(udf_gp), n_tuples, random_state=rng):
                result = processor.process(dist)
                gp_times.append(result.charged_time)
            table.add_row(
                approach="gp",
                function=name,
                eval_time_ms=float(eval_time * 1000.0),
                mean_time_ms=float(np.mean(gp_times) * 1000.0),
            )
    return table


# ---------------------------------------------------------------------------
# Expt 6: online filtering with selection predicates (Fig. 5j, 5k)
# ---------------------------------------------------------------------------

def expt6_filtering(
    target_filter_rates: Sequence[float] = (0.19, 0.72, 0.82, 0.97),
    function_name: str = "F4",
    n_tuples: int = 16,
    epsilon: float = 0.1,
    eval_time: float = 1e-3,
    tep_threshold: float = 0.1,
    n_truth_samples: int = 6000,
    random_state=8,
) -> ExperimentTable:
    """Fig. 5(j, k): runtime and false-positive rate of online filtering."""
    table = ExperimentTable(
        experiment_id="expt6_filtering",
        paper_artifact="Figure 5(j) and 5(k)",
        description="MC / MC+OF / GP / GP+OF under selection predicates of varying selectivity",
    )
    requirement = AccuracyRequirement(epsilon=epsilon, delta=0.05)
    for rate in target_filter_rates:
        rng = as_generator(random_state)
        udf = reference_function(function_name, simulated_eval_time=eval_time)
        spec = workload_for_udf(udf)
        predicate = selectivity_predicate(
            udf, spec, target_filter_rate=rate, threshold=tep_threshold, random_state=rng
        )
        tuples = list(input_stream(spec, n_tuples, random_state=rng))
        # Ground truth: which tuples genuinely fall below the TEP threshold.
        truth_tep = []
        for dist in tuples:
            truth = true_output_distribution(udf, dist, n_truth_samples, random_state=rng)
            truth_tep.append(truth.interval_probability(predicate.low, predicate.high))
        should_drop = np.array(truth_tep) < predicate.threshold
        actual_rate = float(np.mean(should_drop))

        def record(approach: str, times: list[float], kept: list[bool]) -> None:
            kept_arr = np.array(kept)
            false_positive = float(np.mean(kept_arr[should_drop])) if should_drop.any() else 0.0
            false_negative = (
                float(np.mean(~kept_arr[~should_drop])) if (~should_drop).any() else 0.0
            )
            table.add_row(
                approach=approach,
                target_filter_rate=float(rate),
                actual_filter_rate=actual_rate,
                mean_time_ms=float(np.mean(times) * 1000.0),
                false_positive_rate=false_positive,
                false_negative_rate=false_negative,
            )

        # Plain MC (no online filtering): full sampling then truncate.
        udf_run = reference_function(function_name, simulated_eval_time=eval_time)
        times, kept = [], []
        for dist in tuples:
            result = monte_carlo_output(udf_run, dist, requirement=requirement, random_state=rng)
            times.append(result.charged_time)
            tep = result.distribution.interval_probability(predicate.low, predicate.high)
            kept.append(tep >= predicate.threshold)
        record("mc", times, kept)

        # MC with online filtering.
        udf_run = reference_function(function_name, simulated_eval_time=eval_time)
        times, kept = [], []
        for dist in tuples:
            result = monte_carlo_with_filter(
                udf_run, dist, predicate, requirement=requirement, random_state=rng
            )
            times.append(result.charged_time)
            kept.append(not result.dropped)
        record("mc+of", times, kept)

        # GP without and with online filtering, from one seed: the predicate
        # query is the apply query plus a drop test on each envelope a tuple
        # commits, so the two rows differ by the tests alone.
        gp_seed = derive_seed(rng)
        for approach, query_predicate in (("gp", None), ("gp+of", predicate)):
            udf_run = reference_function(function_name, simulated_eval_time=eval_time)
            engine = UDFExecutionEngine("gp", requirement=requirement, random_state=gp_seed)
            outputs = engine.compute_with_plan(
                udf_run, tuples, ExecutionPlan(), predicate=query_predicate
            )
            if query_predicate is None:
                kept = [
                    output.distribution.interval_probability(predicate.low, predicate.high)
                    >= predicate.threshold
                    for output in outputs
                ]
            else:
                kept = [not output.dropped for output in outputs]
            record(approach, [output.charged_time for output in outputs], kept)
    return table


# ---------------------------------------------------------------------------
# Expt 7: varying the function dimensionality (Fig. 5l)
# ---------------------------------------------------------------------------

def expt7_dimensionality(
    dimensions: Sequence[int] = (1, 2, 4, 6),
    mc_eval_times: Sequence[float] = (1e-3, 1e-2, 1e-1, 1.0),
    gp_eval_time: float = 1.0,
    n_tuples: int = 5,
    epsilon: float = 0.1,
    random_state=9,
) -> ExperimentTable:
    """Fig. 5(l): GP versus MC runtime as the UDF dimensionality grows."""
    table = ExperimentTable(
        experiment_id="expt7_dimensionality",
        paper_artifact="Figure 5(l)",
        description="Mean per-tuple charged time versus the input dimensionality",
    )
    requirement = AccuracyRequirement(epsilon=epsilon, delta=0.05)
    for dimension in dimensions:
        rng = as_generator(random_state)
        udf_gp = high_dimensional_function(dimension, simulated_eval_time=gp_eval_time)
        processor = OLGAPRO(
            udf_gp,
            requirement,
            initial_training_points=max(5, 3 * dimension),
            max_points_per_tuple=15,
            random_state=rng,
        )
        spec = workload_for_udf(udf_gp)
        gp_times = []
        for dist in input_stream(spec, n_tuples, random_state=rng):
            result = processor.process(dist)
            gp_times.append(result.charged_time)
        table.add_row(
            approach="gp",
            dimension=int(dimension),
            eval_time_ms=float(gp_eval_time * 1000.0),
            mean_time_ms=float(np.mean(gp_times) * 1000.0),
        )
        for eval_time in mc_eval_times:
            rng = as_generator(random_state)
            udf_mc = high_dimensional_function(dimension, simulated_eval_time=eval_time)
            mc_times = []
            for dist in input_stream(workload_for_udf(udf_mc), n_tuples, random_state=rng):
                result = monte_carlo_output(udf_mc, dist, requirement=requirement, random_state=rng)
                mc_times.append(result.charged_time)
            table.add_row(
                approach="mc",
                dimension=int(dimension),
                eval_time_ms=float(eval_time * 1000.0),
                mean_time_ms=float(np.mean(mc_times) * 1000.0),
            )
    return table
