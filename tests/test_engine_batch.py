"""Batched execution pipeline: equivalence with the per-tuple path.

The central contract of :class:`repro.engine.batch.BatchExecutor` is that —
under the same seed and the default (deterministic) tuning strategy — it
produces exactly the same output distributions and error bounds as calling
the engine once per tuple, for every strategy and including tuples that go
through the refinement loop or carry a selection predicate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.core.filtering import SelectionPredicate
from repro.core.olgapro import OLGAPRO
from repro.engine.batch import iter_batches
from repro.engine.executor import UDFExecutionEngine
from repro.engine.plan import ExecutionPlan
from repro.engine.query import Query
from repro.engine.sdss import generate_galaxy_relation
from repro.exceptions import QueryError
from repro.udf.synthetic import high_dimensional_function, reference_function
from repro.workloads.generators import input_stream, selectivity_predicate, workload_for_udf

RTOL = 1e-8

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)


def _paired_runs(strategy, function_name="F1", n_tuples=7, seed=77, stream_seed=3,
                 requirement=REQUIREMENT, batch_size=4, **engine_kwargs):
    """Run the same stream per-tuple and batched on independent twin engines."""
    outputs = {}
    for mode in ("per_tuple", "batched"):
        udf = reference_function(function_name, simulated_eval_time=1e-3)
        engine = UDFExecutionEngine(
            strategy=strategy, requirement=requirement, random_state=seed, **engine_kwargs
        )
        dists = list(
            input_stream(workload_for_udf(udf), n_tuples,
                         random_state=np.random.default_rng(stream_seed))
        )
        if mode == "per_tuple":
            outputs[mode] = [engine.compute(udf, d) for d in dists]
        else:
            outputs[mode] = engine.compute_with_plan(
                udf, dists, ExecutionPlan(batch_size=batch_size)
            )
        outputs[mode + "_udf"] = udf
    return outputs


def _assert_outputs_match(per_tuple, batched):
    assert len(per_tuple) == len(batched)
    for i, (a, b) in enumerate(zip(per_tuple, batched)):
        assert np.allclose(a.distribution.samples, b.distribution.samples, rtol=RTOL), i
        assert np.isclose(a.error_bound, b.error_bound, rtol=RTOL), i
        assert a.udf_calls == b.udf_calls, i
        assert a.existence_probability == b.existence_probability, i
        assert a.dropped == b.dropped, i


# ---------------------------------------------------------------------------
# BatchExecutor equivalence, per strategy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["mc", "gp", "hybrid"])
def test_batch_matches_per_tuple(strategy):
    runs = _paired_runs(strategy)
    _assert_outputs_match(runs["per_tuple"], runs["batched"])
    # Identical UDF cost in both modes: no extra or saved UDF calls.
    assert runs["per_tuple_udf"].call_count == runs["batched_udf"].call_count


def test_batch_matches_per_tuple_under_refinement():
    """A bumpy UDF forces the refinement loop; trajectories must coincide."""
    runs = _paired_runs(
        "gp",
        function_name="F4",
        n_tuples=4,
        n_samples=200,
        max_points_per_tuple=6,
        batch_size=2,
    )
    _assert_outputs_match(runs["per_tuple"], runs["batched"])
    # The workload must actually have exercised refinement for this test to
    # mean anything.
    assert runs["batched_udf"].call_count > 5


def test_batch_matches_across_chunk_boundaries():
    """Equivalence must hold when the stream spans several chunks."""
    runs = _paired_runs("gp", n_tuples=9, batch_size=4)
    _assert_outputs_match(runs["per_tuple"], runs["batched"])


def test_batch_matches_per_tuple_under_speculative_tuning():
    """Speculative k-point refinement is deterministic: same trajectory in
    both pipelines (stable top-k selection, fresh per-tuple inference)."""
    runs = _paired_runs(
        "gp",
        function_name="F4",
        n_tuples=4,
        n_samples=200,
        max_points_per_tuple=8,
        speculative_k=3,
        batch_size=2,
    )
    _assert_outputs_match(runs["per_tuple"], runs["batched"])
    assert runs["per_tuple_udf"].call_count == runs["batched_udf"].call_count
    # The speculative path must actually have fired (blocked updates happened).
    assert runs["batched_udf"].call_count > 5


def test_process_batch_empty_and_single():
    udf = reference_function("F1")
    processor = OLGAPRO(udf, requirement=REQUIREMENT, random_state=1, n_samples=150)
    assert processor.process_batch([]) == []
    dist = next(iter(input_stream(workload_for_udf(udf), 1, random_state=5)))
    [result] = processor.process_batch([dist])
    assert result.n_samples == 150
    assert result.distribution.size == 150


def test_empty_relation_yields_empty_outputs_and_zero_phases():
    """A zero-length input (empty relation, or an all-empty column block)
    is a legal batch: explicit zero phase timings, not an absent or partial
    report."""
    udf = reference_function("F1")
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=1, n_samples=150
    )
    executor = ExecutionPlan(batch_size=4).resolve(engine)
    assert executor.compute_batch(udf, []) == []
    assert executor.timings.seconds == {
        "sampling": 0.0,
        "inference": 0.0,
        "refinement": 0.0,
    }


def test_single_tuple_chunk_matches_per_tuple():
    """The degenerate chunk the column kernels are most easily off-by-one
    on — a (1, m, 1) sample block, a one-tuple window — against the
    per-tuple reference."""
    udf = high_dimensional_function(1)  # a stream that encodes as a column
    outputs = []
    for batched in (False, True):
        engine = UDFExecutionEngine(
            strategy="gp", requirement=REQUIREMENT, random_state=9, n_samples=150
        )
        [dist] = input_stream(workload_for_udf(udf), 1, random_state=5)
        if batched:
            [output] = ExecutionPlan(batch_size=4).resolve(engine).compute_batch(udf, [dist])
        else:
            output = engine.compute(udf, dist)
        outputs.append(output)
    ref, got = outputs
    assert np.array_equal(ref.distribution.samples, got.distribution.samples)
    assert ref.error_bound == got.error_bound
    assert ref.udf_calls == got.udf_calls


def test_zero_length_column_block_samples_empty():
    """sample_stacked on an empty column returns an empty (0, m, 1) block
    without touching the random stream."""
    from repro.distributions.columns import UncertainColumn, sample_stacked

    column = UncertainColumn(family="gaussian", params=np.empty((0, 2)))
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    block = sample_stacked(column, 7, rng)
    assert block.shape == (0, 7, 1)
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# Filtered (predicate) path
# ---------------------------------------------------------------------------

def test_batch_with_predicate_matches_per_tuple():
    predicate = SelectionPredicate(low=0.0, high=1.0, threshold=0.1)
    outputs = {}
    for mode in ("per_tuple", "batched"):
        udf = reference_function("F1", simulated_eval_time=1e-3)
        engine = UDFExecutionEngine(strategy="gp", requirement=REQUIREMENT,
                                    random_state=7, n_samples=200)
        dists = list(input_stream(workload_for_udf(udf), 6,
                                  random_state=np.random.default_rng(9)))
        if mode == "per_tuple":
            outputs[mode] = [
                engine.compute_with_predicate(udf, d, predicate) for d in dists
            ]
        else:
            executor = ExecutionPlan(batch_size=3).resolve(engine)
            outputs[mode] = executor.compute_batch_with_predicate(udf, dists, predicate)
    for a, b in zip(outputs["per_tuple"], outputs["batched"]):
        assert a.dropped == b.dropped
        assert np.isclose(a.existence_probability, b.existence_probability, rtol=RTOL)
        if not a.dropped and a.distribution is not None:
            assert np.allclose(a.distribution.samples, b.distribution.samples, rtol=RTOL)


@pytest.mark.parametrize("batch_size", [None, 8])
def test_predicate_path_attributes_every_udf_call(batch_size):
    """Dropped and kept tuples charge initialisation and refinement calls."""
    udf = reference_function("F3", simulated_eval_time=1e-4)
    spec = workload_for_udf(udf)
    predicate = selectivity_predicate(udf, spec, 0.5, random_state=np.random.default_rng(4))
    calls_before = udf.call_count
    engine = UDFExecutionEngine(strategy="gp", requirement=REQUIREMENT, random_state=7)
    dists = list(input_stream(spec, 24, random_state=np.random.default_rng(9)))
    result = engine.compute_with_plan(
        udf, dists, plan=ExecutionPlan(batch_size=batch_size), predicate=predicate
    )
    dropped = [output.dropped for output in result.outputs]
    assert any(dropped) and not all(dropped)
    assert udf.call_count - calls_before > 5  # a cold model: the run did call the UDF
    assert sum(output.udf_calls for output in result.outputs) == udf.call_count - calls_before


# ---------------------------------------------------------------------------
# Operator / query integration
# ---------------------------------------------------------------------------

def _galage_query_result(batch_size):
    relation = generate_galaxy_relation(8, random_state=21)
    udf = reference_function("F1", simulated_eval_time=1e-4)
    engine = UDFExecutionEngine(strategy="gp", requirement=REQUIREMENT,
                                random_state=13, n_samples=150)
    query = Query(relation).apply_udf(
        udf, ["ra_offset", "dec_offset"], alias="f", plan=ExecutionPlan(batch_size=batch_size)
    )
    return query.run(engine)


def test_query_batch_size_matches_default_path():
    plain = _galage_query_result(None)
    batched = _galage_query_result(3)
    assert len(plain) == len(batched)
    for a, b in zip(plain, batched):
        assert np.allclose(a["f"].samples, b["f"].samples, rtol=RTOL)
        assert np.isclose(
            a.annotations["f_error_bound"], b.annotations["f_error_bound"], rtol=RTOL
        )


def test_where_udf_batch_size_matches_default_path():
    results = {}
    for batch_size in (None, 4):
        relation = generate_galaxy_relation(8, random_state=22)
        udf = reference_function("F1", simulated_eval_time=1e-4)
        engine = UDFExecutionEngine(strategy="gp", requirement=REQUIREMENT,
                                    random_state=5, n_samples=200)
        results[batch_size] = (
            Query(relation)
            .where_udf(udf, ["ra_offset", "dec_offset"], alias="f",
                       low=0.0, high=1.5, threshold=0.05, plan=ExecutionPlan(batch_size=batch_size))
            .run(engine)
        )
    plain, batched = results[None], results[4]
    assert len(plain) == len(batched)
    for a, b in zip(plain, batched):
        assert np.isclose(a.existence_probability, b.existence_probability, rtol=RTOL)
        assert np.allclose(a["f"].samples, b["f"].samples, rtol=RTOL)


# ---------------------------------------------------------------------------
# Batch plumbing
# ---------------------------------------------------------------------------

def test_iter_batches_chunks_and_validates():
    assert list(iter_batches(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]
    assert list(iter_batches([], 4)) == []
    with pytest.raises(QueryError):
        list(iter_batches(range(3), 0))


def test_batch_executor_records_phase_timings():
    udf = reference_function("F1", simulated_eval_time=1e-4)
    engine = UDFExecutionEngine(strategy="gp", requirement=REQUIREMENT,
                                random_state=3, n_samples=150)
    executor = ExecutionPlan(batch_size=4).resolve(engine)
    dists = list(input_stream(workload_for_udf(udf), 4,
                              random_state=np.random.default_rng(2)))
    executor.compute_batch(udf, dists)
    assert executor.timings.get("sampling") > 0.0
    assert executor.timings.get("inference") > 0.0
    assert executor.timings.total >= executor.timings.get("inference")





def test_names_profilers_bind_stay_importable_without_a_second_body():
    """External profiling tools resolve these by module and name, so they
    stay — but the retired cache class is empty and the column forms are
    loops over their scalar twins (held to them by property tests)."""
    from repro.core.confidence_bands import band_z_values
    from repro.core.error_bounds import gp_discrepancy_bound_block
    from repro.core.local_inference import BatchKernelCache
    from repro.gp.linalg import stacked_jittered_cholesky

    assert not [attr for attr in vars(BatchKernelCache) if not attr.startswith("__")]
    for function in (band_z_values, gp_discrepancy_bound_block, stacked_jittered_cholesky):
        assert callable(function)
