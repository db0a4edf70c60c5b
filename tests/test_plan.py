"""ExecutionPlan: validation, precedence, resolution and path equivalence.

Contracts under test (see :mod:`repro.engine.plan`):

* the plan is the only validator: every rule an executor constructor used
  to check raises a typed ``PlanError`` from ``ExecutionPlan(...)`` —
  conflicts state the precedence rule, never a silently picked path;
* the plan is the only execution surface: operators and the query builder
  take ``plan=`` only, the engine has no per-layer ``compute_*`` shims;
* the plan is the only selector: the shard wrapper, the one chunk
  executor (which reads ``window`` / ``lookahead`` off the plan) or the
  per-tuple path — and no engine module re-implements an OLGAPRO loop;
* **path equivalence**: every determinism-preserving plan (per-tuple,
  batched, inflight=1, lookahead=1, workers=1, each transport) produces
  bit-identical outputs, error bounds and UDF call counts to the serial
  batched path under a fixed seed.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import pickle
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import repro.core.local_inference as local_inference
import repro.core.olgapro
import repro.engine
from repro.core.accuracy import AccuracyRequirement
from repro.core.olgapro import OLGAPRO
from repro.engine import (
    DEFAULT_ASYNC_INFLIGHT,
    MERGE_POLICIES,
    ApplyUDF,
    AsyncioTransport,
    BatchExecutor,
    ExecutionPlan,
    ParallelExecutor,
    Query,
    SelectUDF,
    ThreadPoolTransport,
    UDFExecutionEngine,
    generate_galaxy_relation,
)
from repro.exceptions import PlanError, QueryError
from repro.udf.synthetic import async_service_udf
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)


def _fixture(n_tuples=4, seed=31, stream_seed=4):
    """Fresh (async-service udf, engine, distributions) with fixed seeds.

    An :class:`~repro.udf.base.AsyncUDF` (zero latency) is used so the same
    fixture exercises *every* transport — the serial and thread paths run
    it through its blocking bridge, the asyncio path natively.
    """
    udf = async_service_udf("F4", latency=0.0)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=seed, n_samples=120
    )
    dists = list(
        input_stream(
            workload_for_udf(udf), n_tuples, random_state=np.random.default_rng(stream_seed)
        )
    )
    return udf, engine, dists


def _assert_identical(a_outputs, b_outputs):
    assert len(a_outputs) == len(b_outputs)
    for i, (a, b) in enumerate(zip(a_outputs, b_outputs)):
        assert np.array_equal(a.distribution.samples, b.distribution.samples), i
        assert a.error_bound == b.error_bound, i


# ---------------------------------------------------------------------------
# Validation: the plan is the only validator
# ---------------------------------------------------------------------------

#: Every rule the four executor constructors used to check (each with its
#: own QueryError), now rejected once, at plan construction.  ``match`` is
#: ``"precedence"`` for cross-knob conflicts, whose message quotes the rule.
PLAN_VALIDATION_TABLE = [
    # positive integers (Batch / Async / Pipelined / Parallel constructors);
    # non-integral and bool values used to be truncated by the executors'
    # int() — 1.9 workers ran the serial path.
    ({"batch_size": 0}, "batch_size"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"batch_size": True}, "batch_size"),
    ({"workers": 0}, "workers"),
    ({"workers": 1.9}, "workers"),
    ({"workers": True}, "workers"),
    ({"async_inflight": 0}, "async_inflight"),
    ({"async_inflight": 4.0}, "async_inflight"),
    ({"pipeline_lookahead": -1}, "pipeline_lookahead"),
    ({"pipeline_lookahead": 2.5}, "pipeline_lookahead"),
    ({"pipeline_lookahead": 2, "async_inflight": 0}, "async_inflight"),
    # merge policies (Parallel constructor); the legacy ones are gone.
    ({"workers": 2, "merge": "replace"}, "merge policy"),
    ({"workers": 2, "merge": "union"}, "merge policy"),
    ({"workers": 2, "merge": "refit-threshold"}, "merge policy"),
    ({"merge": "shared"}, "precedence"),
    # retry (Parallel).
    ({"workers": 2, "retry": 7}, "RetryPolicy"),
    # transports (Async / Pipelined / Parallel constructors).
    ({"async_inflight": 2, "transport": "no-such-transport"}, "transport"),
    ({"async_inflight": 8, "transport": "serial"}, "transport"),
    ({"pipeline_lookahead": 4, "transport": "serial"}, "transport"),
    ({"workers": 2, "async_inflight": 4, "transport": "serial"}, "transport"),
    ({"async_inflight": 2, "transport": None}, "transport"),
    ({"transport": "asyncio"}, "precedence"),
    ({"batch_size": 8, "transport": "asyncio"}, "precedence"),
]


@pytest.mark.parametrize(
    "kwargs, match", PLAN_VALIDATION_TABLE, ids=lambda value: repr(value)[:60]
)
def test_invalid_plans_cannot_be_constructed(kwargs, match):
    with pytest.raises(PlanError, match=match):
        ExecutionPlan(**kwargs)


def test_executor_constructors_do_not_validate():
    """The executors read a validated plan; none re-checks or raises."""
    for cls in (BatchExecutor, ParallelExecutor):
        assert list(inspect.signature(cls.__init__).parameters) == ["self", "engine", "plan"]
        assert "raise" not in inspect.getsource(cls.__init__)


# ---------------------------------------------------------------------------
# Surface guard: the plan is the only carrier of execution knobs
# ---------------------------------------------------------------------------

def test_the_plan_is_the_only_execution_surface():
    plan_fields = {field.name for field in fields(ExecutionPlan)}
    assert len(plan_fields) == 8
    for entry in (ApplyUDF.__init__, SelectUDF.__init__, Query.apply_udf, Query.where_udf):
        parameters = set(inspect.signature(entry).parameters)
        assert "plan" in parameters
        assert not parameters & plan_fields, entry.__qualname__
    for shim in ("compute_batch", "compute_parallel", "compute_async", "compute_pipelined"):
        assert not hasattr(UDFExecutionEngine, shim), shim
    assert MERGE_POLICIES == ("discard", "shared")
    assert ExecutionPlan().merge == "discard"


#: The private steps of the OLGAPRO loops.  An engine module that reads one
#: is re-implementing (a slice of) a loop instead of parameterising it.
OLGAPRO_LOOP_PRIVATES = (
    "_recheck", "_selection_inference", "_rollback_to_best",
    "_refinement_capacity", "_absorb_candidate", "_infer_and_bound",
    "_tune_until_bounded", "_maybe_retrain", "_tuple_result",
    "_tuples_processed",
)

#: Every chunk-knob combination (unset / degenerate 1 / engaged).
CHUNK_KNOB_TABLE = [
    dict(batch_size=batch, async_inflight=window, pipeline_lookahead=lookahead)
    for batch, window, lookahead in itertools.product((None, 4), (None, 1, 4), (None, 1, 3))
]


def test_the_loops_exist_once_and_the_plan_selects_one_executor():
    # Class-qualified names (``OLGAPRO._tune_until_bounded``) are docstring
    # cross-references, not reads.
    pattern = re.compile(r"(?<!OLGAPRO)\.(?:%s)\b" % "|".join(OLGAPRO_LOOP_PRIVATES))
    for module in sorted(Path(repro.engine.__file__).parent.glob("*.py")):
        hits = pattern.findall(module.read_text())
        assert not hits, f"{module.name} reads OLGAPRO loop privates: {hits}"

    _, engine, _ = _fixture(n_tuples=1)
    for knobs in CHUNK_KNOB_TABLE:
        plan = ExecutionPlan(**knobs)
        executor = plan.resolve(engine)
        assert type(executor) is BatchExecutor, knobs
        assert (executor.window, executor.lookahead) == (plan.window, plan.lookahead)
        if all(value is None for value in knobs.values()):
            assert executor.batch_size == 1
        assert type(plan.with_overrides(workers=2).resolve(engine)) is ParallelExecutor
        # Only a sharded plan has an inner plan (the shard's).
        with pytest.raises(PlanError, match="sharded"):
            plan.inner()
    # The effective window is computed in one place.
    assert ExecutionPlan().window == ExecutionPlan(pipeline_lookahead=1).window == 1
    assert ExecutionPlan(pipeline_lookahead=4).window == DEFAULT_ASYNC_INFLIGHT
    assert ExecutionPlan(pipeline_lookahead=4, async_inflight=1).window == 1
    assert ExecutionPlan(async_inflight=6).window == 6


def test_one_storage_one_kernel_path():
    """One inference step, one storage: nothing selects another."""
    assert len(fields(ExecutionPlan)) == 8
    with pytest.raises(TypeError):
        ExecutionPlan(storage="columnar")
    _, engine, _ = _fixture(n_tuples=1)
    assert type(ExecutionPlan().resolve(engine)) is BatchExecutor

    def names(module, node_type, attribute):
        tree = ast.parse(Path(module.__file__).read_text())
        return {getattr(n, attribute) for n in ast.walk(tree) if isinstance(n, node_type)}

    for module in (repro.core.olgapro, repro.engine.batch, repro.engine.operators):
        assert "columnar" not in names(module, ast.arg, "arg"), module.__name__
        assert "columnar" not in names(module, ast.Attribute, "attr"), module.__name__
    kernel_caches = [
        name
        for name, cls in inspect.getmembers(local_inference, inspect.isclass)
        if cls.__module__ == local_inference.__name__ and "rows" in vars(cls)
    ]
    assert kernel_caches == []
    # One sampling path: every tuple draws its own samples, so no module
    # defines or calls a stacked draw or its fill-order probe.
    stacked = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        called = {
            getattr(n.func, "id", getattr(n.func, "attr", None))
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
        }
        if (defined | called) & {"stacking_supported", "sample_stacked"}:
            stacked.append(path.name)
    assert stacked == []


def test_removed_spellings_fail_at_the_call_site():
    relation = generate_galaxy_relation(4, random_state=1)
    udf, _, _ = _fixture()
    with pytest.raises(TypeError):
        ExecutionPlan(oversubscribe=2.0)
    # The refinement window has one knob, async_inflight.
    with pytest.raises(TypeError):
        ExecutionPlan(speculative_k=2)
    with pytest.raises(TypeError):
        OLGAPRO(udf, speculative_k=2)
    with pytest.raises(TypeError):
        Query(relation).apply_udf(udf, ["ra_offset", "dec_offset"], alias="f", batch_size=8)
    with pytest.raises(TypeError):
        Query(relation).where_udf(
            udf, ["ra_offset", "dec_offset"], alias="f", low=0.0, high=1.0, workers=2
        )
    with pytest.raises(PlanError):
        Query(relation).apply_udf(udf, ["ra_offset", "dec_offset"], alias="f", plan="atuo")


def test_plan_error_is_a_query_error():
    with pytest.raises(QueryError):
        ExecutionPlan(batch_size=0)


def test_shared_merge_needs_workers():
    # merge="shared" shares what shards learn through a live model; a
    # lookahead stage only prefetches, so it has nothing to share.  Without
    # workers the policy would be silently inert, so the plan rejects it.
    assert ExecutionPlan(workers=2, merge="shared").merge == "shared"
    assert ExecutionPlan(workers=2, pipeline_lookahead=4, merge="shared").merge == "shared"
    with pytest.raises(PlanError, match="set workers \\(or drop merge\\)"):
        ExecutionPlan(pipeline_lookahead=4, merge="shared")


@pytest.mark.parametrize(
    "transport",
    ["serial", "subprocess", ThreadPoolTransport(), AsyncioTransport()],
    ids=["serial", "subprocess", "threads-instance", "asyncio-instance"],
)
def test_only_the_two_carrier_names_are_plan_transports(transport):
    with pytest.raises(PlanError, match="'threads'.*'asyncio'"):
        ExecutionPlan(batch_size=4, async_inflight=2, transport=transport)


def test_a_threads_plan_without_a_window_is_legal():
    # "threads" is the default carrier, so naming it on a plan with no
    # window knob is the same plan (and resolution never opens it).
    _, engine, _ = _fixture(n_tuples=1)
    plan = ExecutionPlan(batch_size=8, transport="threads")
    assert plan == ExecutionPlan(batch_size=8)
    assert isinstance(plan.resolve(engine), BatchExecutor)


@pytest.mark.parametrize("transport", ["threads", "asyncio"])
def test_a_sharded_plan_pickles_with_its_carrier_name(transport):
    # Shards receive the plan pickled; a carrier name survives the trip and
    # every shard's inner plan names the same carrier.
    plan = ExecutionPlan(workers=2, async_inflight=2, transport=transport)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.inner().transport == transport


def test_engine_accepts_a_plan_and_applies_its_window():
    plan = ExecutionPlan(batch_size=4, async_inflight=3)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=1, plan=plan,
    )
    assert engine.plan is plan
    executor = plan.resolve(engine)
    assert isinstance(executor, BatchExecutor)
    assert (executor.window, executor.lookahead) == (3, 1)


def test_every_constructible_plan_resolves_on_a_default_engine():
    """Resolution selects an executor and checks nothing: a plan that
    constructs runs on any engine."""
    _, engine, _ = _fixture(n_tuples=1)
    resolved = 0
    for inflight, lookahead, batch, workers in itertools.product(
        (None, 1, 3, 8), (None, 0, 2), (None, 4), (None, 2)
    ):
        try:
            plan = ExecutionPlan(
                async_inflight=inflight, pipeline_lookahead=lookahead,
                batch_size=batch, workers=workers,
            )
        except PlanError:
            continue
        executor = plan.resolve(engine)
        resolved += 1
        if workers is None:
            assert isinstance(executor, BatchExecutor)
            assert (executor.window, executor.lookahead) == (plan.window, plan.lookahead)
    assert resolved >= 24


def test_with_overrides_revalidates():
    plan = ExecutionPlan(batch_size=8)
    assert plan.with_overrides(batch_size=16).batch_size == 16
    with pytest.raises(PlanError):
        plan.with_overrides(batch_size=0)


# ---------------------------------------------------------------------------
# Resolution: the plan picks the executor the old selection logic picked
# ---------------------------------------------------------------------------

def test_resolution_precedence():
    _, engine, _ = _fixture(n_tuples=1)

    def knobs(**kwargs):
        executor = ExecutionPlan(**kwargs).resolve(engine)
        assert type(executor) is BatchExecutor
        return executor.batch_size, executor.window, executor.lookahead

    assert knobs() == (1, 1, 1)
    assert knobs(batch_size=8) == (8, 1, 1)
    assert knobs(async_inflight=4) == (32, 4, 1)
    assert knobs(async_inflight=4, pipeline_lookahead=4) == (32, 4, 4)
    assert knobs(pipeline_lookahead=4) == (32, DEFAULT_ASYNC_INFLIGHT, 4)
    sharded = ExecutionPlan(workers=2, pipeline_lookahead=4, async_inflight=4)
    assert isinstance(sharded.resolve(engine), ParallelExecutor)
    # The shard plan: sharding fields cleared, every chunk knob intact.
    shard_plan = sharded.inner()
    assert (shard_plan.workers, shard_plan.parallel_seed, shard_plan.merge) == (
        None, None, "discard",
    )
    shard = shard_plan.resolve(engine)
    assert (shard.batch_size, shard.window, shard.lookahead) == (32, 4, 4)


def test_query_plan_reaches_the_operator():
    relation = generate_galaxy_relation(4, random_state=1)
    udf, engine, _ = _fixture()
    plan = ExecutionPlan(batch_size=4, async_inflight=2)
    operator = (
        Query(relation)
        .apply_udf(udf, ["ra_offset", "dec_offset"], alias="f", plan=plan)
        .plan(engine)
    )
    assert operator.plan is plan
    assert (operator._executor.window, operator._executor.lookahead) == (2, 1)


# ---------------------------------------------------------------------------
# Path equivalence: every determinism-preserving plan == serial batched
# ---------------------------------------------------------------------------

DETERMINISM_PRESERVING_PLANS = [
    pytest.param(ExecutionPlan(batch_size=4), id="batched"),
    pytest.param(ExecutionPlan(batch_size=4, async_inflight=1), id="inflight1-threads"),
    pytest.param(
        ExecutionPlan(batch_size=4, async_inflight=1, transport="asyncio"),
        id="inflight1-asyncio",
    ),
    pytest.param(ExecutionPlan(batch_size=4, pipeline_lookahead=1), id="lookahead1"),
    pytest.param(
        ExecutionPlan(batch_size=4, pipeline_lookahead=1, transport="asyncio"),
        id="lookahead1-asyncio",
    ),
    pytest.param(ExecutionPlan(batch_size=4, workers=1), id="workers1"),
]


@pytest.mark.parametrize("plan", DETERMINISM_PRESERVING_PLANS)
def test_determinism_preserving_plans_match_serial_batched(plan):
    """The parametrized property at the heart of the refactor: plans that
    promise bit-identity with the serial batched path keep that promise —
    outputs, error bounds and UDF call counts."""
    udf_ref, engine_ref, dists_ref = _fixture()
    reference = ExecutionPlan(batch_size=4).resolve(engine_ref).compute_batch(udf_ref, dists_ref)

    udf, engine, dists = _fixture()
    outputs = engine.compute_with_plan(udf, dists, plan)
    _assert_identical(reference, outputs)
    assert udf.call_count == udf_ref.call_count


def test_per_tuple_plan_is_numerically_equivalent_to_batched():
    """The all-default plan (per-tuple path) matches the batched pipeline's
    *numerical* equivalence contract from PR 1 (same stream, same results
    to floating-point noise — the batched kernel algebra reorders the
    arithmetic, so bitwise identity is not part of that contract)."""
    udf_ref, engine_ref, dists_ref = _fixture()
    reference = ExecutionPlan(batch_size=4).resolve(engine_ref).compute_batch(udf_ref, dists_ref)
    udf, engine, dists = _fixture()
    outputs = engine.compute_with_plan(udf, dists, ExecutionPlan())
    assert len(reference) == len(outputs)
    for a, b in zip(reference, outputs):
        np.testing.assert_allclose(
            a.distribution.samples, b.distribution.samples, rtol=1e-9, atol=1e-9
        )
        assert a.error_bound == pytest.approx(b.error_bound, rel=1e-9)


def test_compute_with_plan_uses_the_engine_default_plan():
    udf_a, engine_a, dists_a = _fixture()
    direct = engine_a.compute_with_plan(udf_a, dists_a, ExecutionPlan(batch_size=4))

    udf_b, _, dists_b = _fixture()
    engine_b = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=31, n_samples=120,
        plan=ExecutionPlan(batch_size=4),
    )
    defaulted = engine_b.compute_with_plan(udf_b, dists_b)
    _assert_identical(direct, defaulted)
