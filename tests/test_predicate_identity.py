"""A predicate query is the apply query plus a drop test — under every plan.

Online filtering (§5.5) is the last step of a tuple's commit in the one
tuple-commit loop and only *reads* the envelope the tuple committed.  So,
under the same seed and stream, a predicate query must reproduce the apply
query exactly: every kept tuple bit for bit (samples, bound, UDF calls),
the model it leaves behind, and it must drop exactly the tuples whose
committed envelope fails the test — ``ρ_U`` plus the Hoeffding slack at the
tuple's ``m`` draws below the threshold.

Identity with the apply query says nothing about truth, so the drops are
also judged against 20 000-sample ground truth: among dropped tuples the
share whose true existence probability reaches the threshold (§5.5's false
negatives) must stay within δ.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.config import DEFAULT_MC_FRACTION
from repro.core.accuracy import AccuracyRequirement
from repro.core.error_bounds import interval_probability_bounds
from repro.core.filtering import SelectionPredicate, hoeffding_half_width, upper_bound_decision
from repro.core.olgapro import OLGAPRO
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.engine.batch import iter_batches
from repro.engine.parallel import _run_shard
from repro.udf.synthetic import reference_function
from repro.workloads.generators import (
    input_stream,
    selectivity_predicate,
    true_output_distribution,
    workload_for_udf,
)

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)

#: The sampling share of δ: the confidence of the drop test's Hoeffding slack.
DELTA_MC = REQUIREMENT.split(DEFAULT_MC_FRACTION).delta_mc

PLANS = {
    "per_tuple": ExecutionPlan(),
    "batch_32": ExecutionPlan(batch_size=32),
    "async_4": ExecutionPlan(async_inflight=4),
    "lookahead_4": ExecutionPlan(pipeline_lookahead=4),
    "workers_2": ExecutionPlan(workers=2, batch_size=6, merge="discard", parallel_seed=11),
}


def _fixture(n_tuples=12):
    """Fresh (udf, engine, distributions, predicate) with fixed seeds: a cold
    F3 model, so early tuples refine and later ones read a warm model — and,
    under every plan, some envelope stays wide enough on the predicate's
    interval for ``ρ_U`` and ``ρ̂`` to differ."""
    udf = reference_function("F3", simulated_eval_time=1e-3)
    spec = workload_for_udf(udf)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=29, n_samples=200
    )
    dists = list(input_stream(spec, n_tuples, random_state=np.random.default_rng(5)))
    predicate = selectivity_predicate(udf, spec, 0.5, threshold=0.3, random_state=0)
    return udf, engine, dists, predicate


@pytest.fixture
def committed_envelopes(monkeypatch):
    """Every envelope a tuple commits in this process, in commit order."""
    envelopes = []
    original = OLGAPRO._tuple_result

    def recording(self, envelope, bound, **kwargs):
        envelopes.append(envelope)
        return original(self, envelope, bound, **kwargs)

    monkeypatch.setattr(OLGAPRO, "_tuple_result", recording)
    return envelopes


def _apply_with_envelopes(plan, envelopes):
    """The apply query's outputs, and the envelope each output committed.

    A sharded plan's tuples commit in worker processes, so its shards are
    replayed here through the worker entry point itself, from the same
    pickled snapshot and keyed stream — and checked against the pool run.
    """
    udf, engine, dists, _ = _fixture()
    outputs = engine.compute_with_plan(udf, dists, plan).outputs
    if plan.workers is None:
        return outputs, list(envelopes)
    udf, engine, dists, _ = _fixture()
    payload = pickle.dumps((engine, udf, plan.inner()))
    replayed = []
    for index, shard in enumerate(iter_batches(dists, plan.chunk_size)):
        replayed += _run_shard(payload, index, shard, plan.parallel_seed, None).outputs
    for pooled, local in zip(outputs, replayed):
        assert np.array_equal(pooled.distribution.samples, local.distribution.samples)
    return outputs, list(envelopes)


def _fails_drop_test(envelope, predicate) -> bool:
    _, rho_hat, rho_upper = interval_probability_bounds(envelope, predicate.low, predicate.high)
    m = envelope.y_hat.size
    return upper_bound_decision(rho_upper, rho_hat, predicate, m, DELTA_MC).action == "drop"


def _discriminating(predicate, envelopes):
    """``predicate`` at a threshold where ``ρ_U`` keeps a tuple ``ρ̂`` would drop.

    The test only reads, so the threshold may be picked after the apply
    run: midway between ``ρ̂`` and ``ρ_U`` (plus the slack) of the tuple
    whose envelope is widest on the interval — a drop rule that tested the
    estimate instead of the upper bound would then drop that tuple.
    """
    bounds = [interval_probability_bounds(env, predicate.low, predicate.high) for env in envelopes]
    _, rho_hat, rho_upper = max(bounds, key=lambda b: b[2] - b[1])
    assert rho_upper > rho_hat
    slack = hoeffding_half_width(envelopes[0].y_hat.size, DELTA_MC)
    return SelectionPredicate(
        predicate.low, predicate.high, threshold=slack + (rho_hat + rho_upper) / 2
    )


def _gp_state(engine, udf):
    olgapro = engine.olgapro_for(udf, create=False)
    if olgapro is None:
        return None
    gp = olgapro.emulator.gp
    return gp.X_train.tobytes(), gp.y_train.tobytes(), gp.kernel.theta.tobytes()


@pytest.mark.parametrize("name", list(PLANS))
def test_predicate_query_is_apply_query_plus_drop_test(name, committed_envelopes):
    plan = PLANS[name]
    applied, envelopes = _apply_with_envelopes(plan, committed_envelopes)
    udf, engine, dists, predicate = _fixture()
    predicate = _discriminating(predicate, envelopes)
    selected = engine.compute_with_plan(udf, dists, plan, predicate=predicate).outputs

    assert len(envelopes) == len(applied) == len(selected) == len(dists)
    expected_drops = [_fails_drop_test(env, predicate) for env in envelopes]
    assert [output.dropped for output in selected] == expected_drops
    assert any(expected_drops) and not all(expected_drops), "the stream must both drop and keep"
    for i, (apply_output, output, envelope) in enumerate(zip(applied, selected, envelopes)):
        assert output.udf_calls == apply_output.udf_calls, i
        assert output.error_bound == apply_output.error_bound, i
        assert not output.failed, i
        if output.dropped:
            assert output.distribution is None, i
            _, rho_hat, _ = interval_probability_bounds(envelope, predicate.low, predicate.high)
            assert output.existence_probability == rho_hat, i
        else:
            assert np.array_equal(output.distribution.samples, apply_output.distribution.samples), i
            assert output.existence_probability == apply_output.distribution.interval_probability(
                predicate.low, predicate.high
            ), i


@pytest.mark.parametrize("name", ["per_tuple", "batch_32", "async_4", "lookahead_4"])
def test_predicate_query_leaves_the_apply_query_s_model(name):
    plan = PLANS[name]
    udf_a, engine_a, dists_a, _ = _fixture()
    engine_a.compute_with_plan(udf_a, dists_a, plan)
    udf_b, engine_b, dists_b, predicate = _fixture()
    engine_b.compute_with_plan(udf_b, dists_b, plan, predicate=predicate)
    assert _gp_state(engine_a, udf_a) == _gp_state(engine_b, udf_b)
    assert udf_a.call_count == udf_b.call_count


def test_filtering_phase_times_only_the_drop_tests():
    udf, engine, dists, predicate = _fixture()
    result = engine.compute_with_plan(udf, dists, ExecutionPlan(batch_size=4), predicate=predicate)
    seconds = result.timings.seconds
    assert 0.0 < seconds["filtering"] < seconds["inference"]
    assert seconds["filtering"] < 0.05 * seconds["execute"]


# ---------------------------------------------------------------------------
# Ground truth: §5.5's false-negative guarantee
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "function_name, warm_tuples, n_samples",
    [
        ("F1", 32, None),  # a warm model, at the sample count the budget derives
        ("F4", 0, 400),  # a cold model on the bumpy function, refining as it goes
    ],
)
def test_dropped_tuples_are_truly_below_the_threshold(function_name, warm_tuples, n_samples):
    udf = reference_function(function_name, simulated_eval_time=1e-3)
    spec = workload_for_udf(udf)
    kwargs = {} if n_samples is None else {"n_samples": n_samples}
    engine = UDFExecutionEngine(strategy="gp", requirement=REQUIREMENT, random_state=3, **kwargs)
    predicate = selectivity_predicate(udf, spec, 0.5, threshold=0.2, random_state=0)
    plan = ExecutionPlan(batch_size=32)
    if warm_tuples:
        engine.compute_with_plan(udf, list(input_stream(spec, warm_tuples, random_state=1)), plan)
    dists = list(input_stream(spec, 24, random_state=2))
    outputs = engine.compute_with_plan(udf, dists, plan, predicate=predicate).outputs

    dropped = [dist for dist, output in zip(dists, outputs) if output.dropped]
    assert len(dropped) >= 5, "the stream must exercise the drop test"
    truly_kept = [
        true_output_distribution(udf, dist, 20_000, random_state=7).interval_probability(
            predicate.low, predicate.high
        )
        >= predicate.threshold
        for dist in dropped
    ]
    assert np.mean(truly_kept) <= REQUIREMENT.delta
