"""QueryService / Session: the always-on concurrent serving layer.

Contracts under test (see :mod:`repro.engine.service`):

* each served query's final result is **bit-identical** to running the
  same query with the same seed directly — including with 16 queries,
  distinct seeds, concurrently in flight;
* admission control rejects past ``queue_limit`` with a typed
  :class:`~repro.exceptions.ServiceOverloadError` (and counts it);
* cancellation mid-refinement and service shutdown leave **no leaked
  threads or event loops** — the transport close-on-every-exit-path
  contract extended to the serving layer;
* per-query timeouts and client-side ``result(timeout=)`` waits raise
  :class:`~repro.exceptions.QueryTimeoutError`;
* the anytime event stream yields in-order ``(tuple_id, verdict, bound,
  version)`` events matching the final result's verdicts;
* the opt-in ``share_models`` mode warm-starts later queries (fewer UDF
  calls), isolated per region — and routes concurrent same-``(udf,
  region)`` queries through one live
  :class:`~repro.core.shared_model.SharedEmulatorStore`, so neither
  learner retrains blind to the other (the pre-store loan cache let the
  race's loser train fully cold);
* served results surface the shared-model cost under the
  ``model_refresh`` / ``model_append`` timing phases.
"""

from __future__ import annotations

import re
import threading
import time

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.engine import (
    VERDICT_CERTAIN,
    VERDICT_POSSIBLE,
    ExecutionPlan,
    Query,
    QueryEvent,
    QueryService,
    Session,
    UDFExecutionEngine,
    generate_galaxy_relation,
)
from repro.exceptions import (
    QueryCancelledError,
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadError,
)
from repro.udf.base import UDF

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)
RELATION = generate_galaxy_relation(4, random_state=11)

#: Service threads that must not outlive a closed service (the loop
#: thread, the row-evaluation pool, and any transport worker threads).
SERVICE_THREAD_PREFIXES = ("repro-query-service", "repro-serve", "repro-")


def _fast_udf(name: str = "fast") -> UDF:
    """A cheap vectorised 1-d function of the redshift attribute."""
    return UDF(
        lambda X: np.sin(3.0 * np.atleast_2d(X)[:, 0]),
        dimension=1, name=name, vectorized=True,
    )


def _slow_udf(per_call: float = 0.02, name: str = "slow") -> UDF:
    """Like :func:`_fast_udf` but sleeping ``per_call`` per evaluation.

    OLGAPRO issues ~13 vectorised calls per tuple at these settings, so a
    4-tuple query takes ~1s — long enough to cancel/overload/time out
    mid-refinement, short enough for the suite.
    """

    def f(X: np.ndarray) -> np.ndarray:
        time.sleep(per_call)
        return np.sin(3.0 * np.atleast_2d(X)[:, 0])

    return UDF(f, dimension=1, name=name, vectorized=True)


def _engine(seed: int = 7) -> UDFExecutionEngine:
    return UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=seed, n_samples=120
    )


def _query(udf: UDF) -> Query:
    return Query(RELATION).apply_udf(udf, ["redshift"], alias="out")


def _comparable_annotations(row) -> dict:
    """The row's annotations minus wall-clock (``*_charged_time``) entries."""
    return {
        key: value
        for key, value in row.annotations.items()
        if not key.endswith("_charged_time")
    }


def _assert_relations_identical(a, b, alias: str = "out") -> None:
    assert len(a) == len(b)
    for i, (ra, rb) in enumerate(zip(a.relation.tuples, b.relation.tuples)):
        assert np.array_equal(ra[alias].samples, rb[alias].samples), i
        assert _comparable_annotations(ra) == _comparable_annotations(rb), i


def _no_service_threads_left() -> list[str]:
    """Names of surviving service/transport threads (should be empty)."""
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith(SERVICE_THREAD_PREFIXES)
    ]


# ---------------------------------------------------------------------------
# Bit-identity with the serial path
# ---------------------------------------------------------------------------

def test_single_served_query_matches_direct_run():
    # The serial reference runs the SAME plan the session installs: the
    # service's identity contract is same-seed-same-plan, and the batched
    # and per-tuple GP refinement paths can differ at the last ulp.
    plan = ExecutionPlan(batch_size=2)
    udf = _fast_udf()
    serial = Query(RELATION).apply_udf(udf, ["redshift"], alias="out", plan=plan).run(
        _engine(seed=7)
    )
    with Session(lambda: _engine(seed=7), plan=plan) as s:
        served = s.run(_query(udf))
    _assert_relations_identical(served, serial)
    assert [v.verdict for v in served.verdicts] == [
        v.verdict for v in serial.verdicts
    ]


def test_sixteen_concurrent_queries_each_bit_identical():
    # One UDF instance per query: the call-count instrumentation lives on
    # the (mutable) UDF object, so sharing one across concurrent queries
    # would cross-talk the udf_calls annotation (the values would still be
    # bit-identical — only the accounting mixes).
    plan = ExecutionPlan(batch_size=2)
    seeds = list(range(16))
    serial = {
        seed: Query(RELATION)
        .apply_udf(_fast_udf(), ["redshift"], alias="out", plan=plan)
        .run(_engine(seed=seed))
        for seed in seeds
    }
    with QueryService(worker_budget=4, queue_limit=32) as service:
        handles = {
            seed: service.submit(
                _query(_fast_udf()), _engine(seed=seed),
                plan=plan, name=f"seed-{seed}",
            )
            for seed in seeds
        }
        for seed, handle in handles.items():
            _assert_relations_identical(handle.result(timeout=120), serial[seed])
        assert service.stats["completed"] == 16
    assert _no_service_threads_left() == []


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def test_overload_rejects_with_typed_error():
    udf = _slow_udf()
    with QueryService(worker_budget=1, queue_limit=2) as service:
        h1 = service.submit(_query(udf), _engine())
        h2 = service.submit(_query(udf), _engine())
        with pytest.raises(ServiceOverloadError, match="queue_limit=2"):
            service.submit(_query(udf), _engine())
        assert service.stats["rejected"] == 1
        assert service.active_count() == 2
        h1.cancel()
        h2.cancel()
    assert _no_service_threads_left() == []


def test_overload_error_is_a_service_error():
    assert issubclass(ServiceOverloadError, ServiceError)


# ---------------------------------------------------------------------------
# Cancellation / timeout: typed errors, no leaked resources
# ---------------------------------------------------------------------------

def test_cancellation_mid_refinement_leaves_no_leaked_threads():
    udf = _slow_udf()
    service = QueryService(worker_budget=2)
    handle = service.submit(
        _query(udf), _engine(), plan=ExecutionPlan(batch_size=1)
    )
    # Wait until the first row settled, so the cancel lands mid-refinement.
    first = next(iter(handle.stream()))
    assert isinstance(first, QueryEvent)
    assert handle.cancel() is True
    with pytest.raises(QueryCancelledError):
        handle.result(timeout=60)
    assert handle.cancelled() and handle.done()
    assert service.stats["cancelled"] == 1
    service.close()
    assert _no_service_threads_left() == []


def test_cancel_after_completion_returns_false():
    udf = _fast_udf()
    with QueryService() as service:
        handle = service.submit(_query(udf), _engine())
        handle.result(timeout=60)
        assert handle.cancel() is False
        assert not handle.cancelled()


def test_server_side_timeout_raises_query_timeout_error():
    # The full message is pinned: a server-side expiry must say the *query*
    # exceeded *its* timeout (the deadline killed the work), which is a
    # different statement from the client-side wait expiring below.
    udf = _slow_udf()
    with QueryService(worker_budget=2) as service:
        handle = service.submit(_query(udf), _engine(), timeout=0.2, name="q-srv")
        expected = re.escape("query 'q-srv' exceeded its 0.2s timeout")
        with pytest.raises(QueryTimeoutError, match=f"^{expected}$"):
            handle.result(timeout=60)
        assert service.stats["timed_out"] == 1
    assert _no_service_threads_left() == []


def test_client_side_result_wait_timeout_leaves_query_running():
    # Full message pinned: a client-side expiry must say only the result()
    # *wait* ran out and the query itself is still running — callers decide
    # between re-waiting and cancelling based on exactly this distinction.
    udf = _slow_udf()
    with QueryService(worker_budget=2) as service:
        handle = service.submit(_query(udf), _engine(), name="q-cli")
        expected = re.escape(
            "query 'q-cli' did not finish within the 0.05s result() wait "
            "(the query itself is still running)"
        )
        with pytest.raises(QueryTimeoutError, match=f"^{expected}$"):
            handle.result(timeout=0.05)
        assert not handle.done()
        handle.cancel()
    assert _no_service_threads_left() == []


def test_close_force_finishes_pending_handles():
    udf = _slow_udf()
    service = QueryService(worker_budget=2)
    handle = service.submit(_query(udf), _engine())
    service.close()
    with pytest.raises(QueryCancelledError):
        handle.result(timeout=10)
    assert _no_service_threads_left() == []


def test_submit_after_close_raises_service_error():
    service = QueryService()
    service.close()
    with pytest.raises(ServiceError, match="closed"):
        service.submit(_query(_fast_udf()), _engine())
    service.close()  # idempotent


# ---------------------------------------------------------------------------
# Anytime event stream
# ---------------------------------------------------------------------------

def test_event_stream_yields_ordered_verdicts_matching_result():
    udf = _fast_udf()
    with QueryService() as service:
        handle = service.submit(
            _query(udf), _engine(), plan=ExecutionPlan(batch_size=1)
        )
        events = list(handle.stream())
        result = handle.result(timeout=60)
    assert [e.tuple_id for e in events] == list(range(len(RELATION)))
    assert [e.version for e in events] == list(range(len(RELATION)))
    assert all(e.verdict in (VERDICT_CERTAIN, VERDICT_POSSIBLE) for e in events)
    assert [e.as_verdict() for e in events] == list(result.verdicts)
    # The stream stays drainable after the fact (second consumer sees EOF).
    assert list(handle.stream()) == []


# ---------------------------------------------------------------------------
# Session facade
# ---------------------------------------------------------------------------

def test_session_owns_and_closes_its_service():
    session = Session(lambda: _engine(), plan=ExecutionPlan(batch_size=2))
    session.run(_query(_fast_udf()))
    session.close()
    with pytest.raises(ServiceError, match="closed"):
        session.submit(_query(_fast_udf()))
    assert _no_service_threads_left() == []


def test_session_shares_external_service_without_closing_it():
    with QueryService() as service:
        with Session(lambda: _engine(), service=service) as session:
            session.run(_query(_fast_udf()))
        # Exiting the session must not close the shared service.
        handle = service.submit(_query(_fast_udf()), _engine())
        handle.result(timeout=60)
    assert _no_service_threads_left() == []


def test_session_per_query_plan_overrides_default():
    with Session(lambda: _engine(), plan=ExecutionPlan(batch_size=2)) as session:
        handle = session.submit(_query(_fast_udf()), plan=ExecutionPlan(batch_size=1))
        assert handle.result(timeout=60).plan.batch_size == 1


# ---------------------------------------------------------------------------
# Cross-query caches
# ---------------------------------------------------------------------------

def test_share_models_warm_starts_within_a_region():
    calls = {"n": 0}

    def f(X: np.ndarray) -> np.ndarray:
        calls["n"] += 1
        return np.sin(3.0 * np.atleast_2d(X)[:, 0])

    udf = UDF(f, dimension=1, name="counted", vectorized=True)
    with QueryService(share_models=True) as service:
        service.submit(_query(udf), _engine(), region="r1").result(timeout=60)
        cold = calls["n"]
        service.submit(_query(udf), _engine(), region="r1").result(timeout=60)
        warm = calls["n"] - cold
        service.submit(_query(udf), _engine(), region="r2").result(timeout=60)
        other_region = calls["n"] - cold - warm
    assert warm < cold  # trained emulator was reused
    assert other_region == cold  # regions are isolated


def _counted_udf(per_call: float = 0.003):
    """A ``counted`` UDF with a thread-safe call counter and a real cost.

    The sleep releases the GIL so two served queries genuinely overlap;
    each test builds its own instance because the counter is mutable
    state on the UDF object.
    """
    calls = {"n": 0}
    lock = threading.Lock()

    def f(X: np.ndarray) -> np.ndarray:
        with lock:
            calls["n"] += 1
        time.sleep(per_call)
        return np.sin(3.0 * np.atleast_2d(X)[:, 0])

    return UDF(f, dimension=1, name="counted", vectorized=True), calls


def test_concurrent_same_region_queries_share_one_live_store():
    """Two in-flight queries on one ``(udf, region)`` both warm-start.

    Regression guard for the loaned-emulator race: the pre-store
    ``share_models`` cache checked one model out to the first query, so a
    concurrent second query found the slot empty and retrained fully
    cold.  The store has no checkout — both engines must bind to the
    *same* live store and each must absorb training rows the other paid
    for, mid-stream.
    """
    udf_a, calls_a = _counted_udf()
    udf_b, calls_b = _counted_udf()
    engine_a, engine_b = _engine(), _engine()
    with QueryService(share_models=True, worker_budget=4) as service:
        handle_a = service.submit(_query(udf_a), engine_a, region="r1")
        handle_b = service.submit(_query(udf_b), engine_b, region="r1")
        handle_a.result(timeout=60)
        handle_b.result(timeout=60)
        store = service._model_stores["r1"]["counted"]
    sync_a = engine_a._processor_for(udf_a).model_sync
    sync_b = engine_b._processor_for(udf_b).model_sync
    # One store, not a loan: both engines bound to the same object.
    assert sync_a.store is store
    assert sync_b.store is store
    # Both warm-started: each absorbed rows the *other* query evaluated
    # (absorption never calls the UDF, so these rows came for free) ...
    assert sync_a.absorbed_rows > 0
    assert sync_b.absorbed_rows > 0
    # ... and each published its own work for the other to reuse.
    assert sync_a.published_rows > 0
    assert sync_b.published_rows > 0
    assert calls_a["n"] > 0 and calls_b["n"] > 0


def test_served_result_surfaces_model_phase_timings():
    """``QueryResult.timings`` always carries the model-exchange phases.

    With ``share_models`` on, the store round-trips are charged to
    ``model_refresh`` (fetch + absorb) and ``model_append`` (gather +
    publish); with it off the phases still exist — pinned at zero — so
    bench rows render stable ``model_refresh_ms`` / ``model_append_ms``
    columns either way.
    """
    udf, _ = _counted_udf(per_call=0.0)
    with QueryService(share_models=True) as service:
        result = service.submit(_query(udf), _engine(), region="r1").result(
            timeout=60
        )
    assert "model_refresh" in result.timings.seconds
    assert "model_append" in result.timings.seconds
    assert result.timings.get("model_refresh") > 0.0

    udf2, _ = _counted_udf(per_call=0.0)
    with QueryService(share_models=False) as service:
        result = service.submit(_query(udf2), _engine()).result(timeout=60)
    assert result.timings.get("model_refresh") == 0.0
    assert result.timings.get("model_append") == 0.0


def test_served_result_carries_executor_phase_timings():
    """A served query reports where its ``execute`` span went.

    The UDF node's executor phases (``sampling`` / ``inference`` /
    ``refinement``) are merged into the served result exactly as
    ``Query.run`` merges them — a served query used to report ``execute``
    only, so every bench row read ``inference = 0``.
    """
    udf, _ = _counted_udf(per_call=0.0)
    with QueryService() as service:
        result = service.submit(
            _query(udf), _engine(), plan=ExecutionPlan(batch_size=2)
        ).result(timeout=60)
    for phase in ("sampling", "inference"):
        assert 0.0 < result.timings.get(phase) < result.timings.get("execute")
    assert "refinement" in result.timings.seconds


def test_plan_cache_dedupes_equal_plans():
    with QueryService() as service:
        a = service._cached_plan(ExecutionPlan(batch_size=2))
        b = service._cached_plan(ExecutionPlan(batch_size=2))
        c = service._cached_plan(ExecutionPlan(batch_size=4))
    assert a is b
    assert c is not a
