"""QueryResult: the typed result every execution entry point returns.

Contracts under test (see :mod:`repro.engine.result` and
:meth:`UDFExecutionEngine.compute_with_plan
<repro.engine.executor.UDFExecutionEngine.compute_with_plan>`):

* every execution entry point returns a :class:`QueryResult` that *is*
  its payload for pre-existing consumers (iteration, ``len``, indexing,
  equality, attribute delegation) while exposing typed ``.relation`` /
  ``.outputs`` accessors, the executed plan, phase timings and per-tuple
  verdicts;
* ``Query.run`` timings carry the UDF executors' phases, not only
  ``execute``;
* verdict classification follows the certain/possible/excluded anytime
  vocabulary against the engine's (ε, δ) requirement;
* an engine-default plan applies to query-built operators when no
  ``plan=`` was given (the ``Session.submit`` seam).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.engine import (
    VERDICT_CERTAIN,
    VERDICT_EXCLUDED,
    VERDICT_POSSIBLE,
    ComputedOutput,
    ExecutionPlan,
    Query,
    QueryResult,
    TupleVerdict,
    UDFExecutionEngine,
    classify_outputs,
    generate_galaxy_relation,
)
from repro.engine.result import classify_output
from repro.exceptions import QueryError
from repro.udf.synthetic import async_service_udf
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)


def _fixture(n_tuples=4, seed=31, stream_seed=4):
    udf = async_service_udf("F4", latency=0.0)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=seed, n_samples=120
    )
    dists = list(
        input_stream(
            workload_for_udf(udf), n_tuples,
            random_state=np.random.default_rng(stream_seed),
        )
    )
    return udf, engine, dists


def _assert_identical(a_outputs, b_outputs):
    assert len(a_outputs) == len(b_outputs)
    for i, (a, b) in enumerate(zip(a_outputs, b_outputs)):
        assert np.array_equal(a.distribution.samples, b.distribution.samples), i
        assert a.error_bound == b.error_bound, i


def _output(
    error_bound=0.1, existence=1.0, dropped=False, with_distribution=True
) -> ComputedOutput:
    udf, engine, dists = _fixture(n_tuples=1)
    distribution = (
        engine.compute_with_plan(udf, dists).outputs[0].distribution
        if with_distribution
        else None
    )
    return ComputedOutput(
        distribution=distribution,
        error_bound=error_bound,
        existence_probability=existence,
        dropped=dropped,
        udf_calls=1,
        charged_time=0.0,
    )


# ---------------------------------------------------------------------------
# QueryResult payload protocol (back-compat with bare returns)
# ---------------------------------------------------------------------------

def test_query_result_delegates_list_protocol():
    udf, engine, dists = _fixture()
    result = engine.compute_with_plan(udf, dists)
    assert isinstance(result, QueryResult)
    assert len(result) == len(dists)
    assert list(result) == result.outputs
    assert result[0] is result.outputs[0]
    assert result.outputs[0] in result
    assert result == result.outputs  # equality against the bare payload


def test_query_result_delegates_relation_protocol():
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=7, n_samples=120
    )
    relation = generate_galaxy_relation(3, random_state=5)
    result = Query(relation).project(["objID"]).run(engine)
    # Attribute access falls through to the wrapped Relation.
    assert result.name == "result"
    assert result.schema == result.relation.schema
    assert len(result.tuples) == 3
    assert [row["objID"] for row in result] == [0, 1, 2]


def test_typed_accessors_raise_on_wrong_payload_kind():
    udf, engine, dists = _fixture(n_tuples=2)
    outputs_result = engine.compute_with_plan(udf, dists)
    with pytest.raises(QueryError, match="use .outputs"):
        outputs_result.relation
    relation_result = Query(generate_galaxy_relation(2, random_state=5)).run(
        UDFExecutionEngine(strategy="gp", requirement=REQUIREMENT, random_state=7)
    )
    with pytest.raises(QueryError, match="use .relation"):
        relation_result.outputs


def test_query_result_carries_plan_timings_and_verdicts():
    udf, engine, dists = _fixture()
    plan = ExecutionPlan(batch_size=2)
    result = engine.compute_with_plan(udf, dists, plan)
    assert result.plan is plan
    assert result.timings.get("execute") > 0.0
    assert len(result.verdicts) == len(dists)
    assert all(isinstance(v, TupleVerdict) for v in result.verdicts)
    assert len(result.certain()) + len(result.possible()) <= len(dists)


def test_operator_execute_wraps_relation_with_record():
    udf, engine, dists = _fixture()
    relation = generate_galaxy_relation(3, random_state=5)
    plan = ExecutionPlan(batch_size=2)
    svc = async_service_udf("F4", latency=0.0)
    result = (
        Query(relation)
        .apply_udf(svc, ["ra_offset", "dec_offset"], alias="f", plan=plan)
        .run(engine)
    )
    assert isinstance(result, QueryResult)
    assert result.plan == plan
    assert result.timings.get("execute") > 0.0
    # The UDF node's executor phases ride along, inside the execute span.
    for phase in ("sampling", "inference"):
        assert 0.0 < result.timings.get(phase) < result.timings.get("execute")
    assert "refinement" in result.timings.seconds
    assert len(result.verdicts) == len(result.relation.tuples)


# ---------------------------------------------------------------------------
# Verdict classification
# ---------------------------------------------------------------------------

def test_classify_certain_when_bound_within_epsilon():
    verdict = classify_output(_output(error_bound=0.1), epsilon=0.15,
                              tuple_id=3, version=5)
    assert verdict == TupleVerdict(3, VERDICT_CERTAIN, 0.1, 5)


def test_classify_possible_when_bound_open_or_existence_uncertain():
    assert (
        classify_output(_output(error_bound=0.5), 0.15, 0, 0).verdict
        == VERDICT_POSSIBLE
    )
    assert (
        classify_output(_output(existence=0.6), 0.15, 0, 0).verdict
        == VERDICT_POSSIBLE
    )
    # A NaN bound (a tuple quarantined before any bound existed) makes no
    # closed claim.
    assert (
        classify_output(_output(error_bound=math.nan), 0.15, 0, 0).verdict
        == VERDICT_POSSIBLE
    )


@pytest.mark.parametrize("with_predicate", [False, True], ids=["apply", "select"])
def test_monte_carlo_claims_epsilon_and_classifies_certain(with_predicate):
    """Plain Monte Carlo claims the requirement's ε as its bound, so a tuple
    that certainly exists is ``certain`` — under a predicate too, where the
    sequential filter keeps every tuple of a predicate that holds for every
    output."""
    from repro.core.filtering import SelectionPredicate

    udf, _, dists = _fixture()
    engine = UDFExecutionEngine(strategy="mc", requirement=REQUIREMENT, random_state=31)
    predicate = SelectionPredicate(-1e9, 1e9, 0.5) if with_predicate else None
    result = engine.compute_with_plan(udf, dists, ExecutionPlan(batch_size=4), predicate=predicate)
    assert [output.error_bound for output in result.outputs] == [REQUIREMENT.epsilon] * len(dists)
    assert all(not output.dropped for output in result.outputs)
    assert [verdict.verdict for verdict in result.verdicts] == [VERDICT_CERTAIN] * len(dists)


def test_classify_excluded_when_dropped():
    out = _output(dropped=True, with_distribution=False)
    assert classify_output(out, 0.15, 0, 0).verdict == VERDICT_EXCLUDED


def test_classify_outputs_versions_follow_tuple_order():
    outputs = [_output(), _output(), _output()]
    verdicts = classify_outputs(outputs, epsilon=0.15)
    assert [v.tuple_id for v in verdicts] == [0, 1, 2]
    assert [v.version for v in verdicts] == [0, 1, 2]


# ---------------------------------------------------------------------------
# Engine-default plan fallback (the Session.submit seam)
# ---------------------------------------------------------------------------

def test_engine_default_plan_applies_to_unconfigured_query():
    relation = generate_galaxy_relation(3, random_state=5)
    svc = async_service_udf("F4", latency=0.0)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=7, n_samples=120,
        plan=ExecutionPlan(batch_size=2),
    )
    result = Query(relation).apply_udf(svc, ["ra_offset", "dec_offset"], alias="f").run(engine)
    assert result.plan == ExecutionPlan(batch_size=2)


def test_explicit_plan_beats_engine_default():
    relation = generate_galaxy_relation(3, random_state=5)
    svc = async_service_udf("F4", latency=0.0)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=7, n_samples=120,
        plan=ExecutionPlan(batch_size=2),
    )
    result = (
        Query(relation)
        .apply_udf(svc, ["ra_offset", "dec_offset"], alias="f", plan=ExecutionPlan(batch_size=4))
        .run(engine)
    )
    assert result.plan == ExecutionPlan(batch_size=4)
