"""Profiling experiments of Section 6.2 (Profiles 1–3).

These establish the internal behaviour of the GP machinery: how well the GP
fits functions of different shapes (Fig. 5a), how tight the λ-discrepancy
error bound is (Fig. 5b), and how the total error budget should be split
between Monte-Carlo sampling and GP modelling (Profile 3).

All functions accept size parameters so that the pytest-benchmark wrappers
can run scaled-down versions while a full-scale run remains a single call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.harness import ExperimentTable
from repro.core.accuracy import AccuracyRequirement
from repro.core.confidence_bands import band_z_value
from repro.core.emulator import GPEmulator
from repro.core.error_bounds import build_envelope_outputs, gp_discrepancy_bound
from repro.core.metrics import lambda_discrepancy
from repro.core.olgapro import OLGAPRO
from repro.gp.regression import GaussianProcess
from repro.gp.training import fit_hyperparameters, initial_hyperparameters
from repro.index.bounding_box import BoundingBox
from repro.rng import as_generator
from repro.udf.synthetic import reference_function
from repro.workloads.generators import (
    input_stream,
    true_output_distribution,
    workload_for_udf,
)

#: Default reference-function names, in increasing order of difficulty.
DEFAULT_FUNCTIONS = ("F1", "F2", "F3", "F4")


def profile1_function_fitting(
    n_training_values: Sequence[int] = (30, 60, 100, 150, 200),
    function_names: Sequence[str] = DEFAULT_FUNCTIONS,
    n_test_points: int = 400,
    random_state=0,
) -> ExperimentTable:
    """Fig. 5(a): GP relative fitting error versus number of training points."""
    rng = as_generator(random_state)
    table = ExperimentTable(
        experiment_id="profile1_function_fitting",
        paper_artifact="Figure 5(a)",
        description="Mean relative inference error |f_hat - f| / |f| at held-out points",
    )
    for name in function_names:
        udf = reference_function(name)
        low, high = udf.domain
        test_points = rng.uniform(low, high, size=(n_test_points, udf.dimension))
        true_values = udf.with_simulated_eval_time(0.0).evaluate_batch(test_points)
        for n in n_training_values:
            train_points = rng.uniform(low, high, size=(n, udf.dimension))
            train_values = udf.with_simulated_eval_time(0.0).evaluate_batch(train_points)
            gp = GaussianProcess()
            gp.fit(train_points, train_values)
            fit_hyperparameters(gp, start=initial_hyperparameters(train_points, train_values))
            predictions = gp.predict_mean(test_points)
            relative_error = np.abs(predictions - true_values) / np.maximum(np.abs(true_values), 1e-9)
            table.add_row(
                function=name,
                n_training=int(n),
                relative_error=float(np.mean(relative_error)),
            )
    return table


def profile2_error_bound(
    lambda_fractions: Sequence[float] = (0.002, 0.01, 0.02, 0.05, 0.1),
    function_name: str = "F4",
    n_training: int = 150,
    n_tuples: int = 8,
    n_samples: int = 1200,
    n_truth_samples: int = 20000,
    random_state=1,
) -> ExperimentTable:
    """Fig. 5(b): λ-discrepancy error bound versus the actual error, varying λ."""
    rng = as_generator(random_state)
    udf = reference_function(function_name)
    emulator = GPEmulator(udf)
    emulator.train_initial(n_training, design="random", random_state=rng)
    spec = workload_for_udf(udf)
    output_range = None

    table = ExperimentTable(
        experiment_id="profile2_error_bound",
        paper_artifact="Figure 5(b)",
        description="Discrepancy error bound vs actual error as a function of lambda",
    )
    # Collect per-tuple envelopes once, then evaluate every lambda on them.
    envelopes = []
    truths = []
    for dist in input_stream(spec, n_tuples, random_state=rng):
        samples = dist.sample(n_samples, random_state=rng)
        means, stds = emulator.predict(samples)
        band = band_z_value(
            emulator.gp.kernel, BoundingBox.from_points(samples), alpha=0.05, n_points=n_samples
        )
        envelope = build_envelope_outputs(means, stds, band.z_value)
        envelopes.append(envelope)
        truths.append(true_output_distribution(udf, dist, n_truth_samples, random_state=rng))
        if output_range is None:
            y = emulator.gp.y_train
            output_range = float(np.max(y) - np.min(y))
    for fraction in lambda_fractions:
        lam = fraction * output_range
        bounds = [gp_discrepancy_bound(env, lam) for env in envelopes]
        actuals = [
            lambda_discrepancy(env.y_hat, truth, lam)
            for env, truth in zip(envelopes, truths)
        ]
        table.add_row(
            lambda_fraction=float(fraction),
            actual_error=float(np.mean(actuals)),
            error_bound=float(np.mean(bounds)),
        )
    return table


def profile3_error_allocation(
    mc_fractions: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
    function_name: str = "F4",
    n_tuples: int = 8,
    epsilon: float = 0.1,
    delta: float = 0.05,
    max_points_per_tuple: int = 20,
    n_truth_samples: int = 10000,
    random_state=2,
) -> ExperimentTable:
    """Profile 3: how to split ε between the MC and GP error sources."""
    table = ExperimentTable(
        experiment_id="profile3_error_allocation",
        paper_artifact="Section 6.2, Profile 3",
        description="Runtime and realised error for different epsilon_MC shares",
    )
    for fraction in mc_fractions:
        rng = as_generator(random_state)
        udf = reference_function(function_name, simulated_eval_time=1e-3)
        processor = OLGAPRO(
            udf,
            AccuracyRequirement(epsilon=epsilon, delta=delta),
            mc_fraction=fraction,
            max_points_per_tuple=max_points_per_tuple,
            random_state=rng,
        )
        spec = workload_for_udf(udf)
        times: list[float] = []
        errors: list[float] = []
        converged_count = 0
        for dist in input_stream(spec, n_tuples, random_state=rng):
            result = processor.process(dist)
            times.append(result.charged_time)
            converged_count += int(result.converged)
            truth = true_output_distribution(udf, dist, n_truth_samples, random_state=rng)
            errors.append(
                lambda_discrepancy(result.distribution, truth, processor.lambda_value())
            )
        table.add_row(
            mc_fraction=float(fraction),
            mc_samples_per_tuple=processor.mc_samples(),
            mean_time_ms=float(np.mean(times) * 1000.0),
            mean_actual_error=float(np.mean(errors)),
            converged_fraction=converged_count / n_tuples,
        )
    return table


def all_profiles(random_state=0) -> list[ExperimentTable]:
    """Run the three profiling experiments with default (scaled) parameters."""
    return [
        profile1_function_fitting(random_state=random_state),
        profile2_error_bound(random_state=random_state),
        profile3_error_allocation(random_state=random_state),
    ]
