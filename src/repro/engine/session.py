"""The `Session` facade: the one supported client entry to query serving.

There are two supported execution paths: batch callers build an
:class:`~repro.engine.plan.ExecutionPlan` and call
:meth:`~repro.engine.executor.UDFExecutionEngine.compute_with_plan` (or
``Query.run``); serving callers open one :class:`Session` and
:meth:`~Session.submit` queries to it.  A session binds together

* an **engine factory** — each submitted query gets a *fresh* engine, so
  per-query results stay bit-identical to running that query alone with
  the same seed (the factory is where a caller varies seeds per query);
* a **default plan** — installed on every fresh engine, so one plan
  configures the whole workload without threading ``plan=`` through every
  query-builder call; and
* a **service** — either one the session creates and owns (closed with
  the session) or an external long-lived
  :class:`~repro.engine.service.QueryService` shared across sessions.

Typical use::

    from repro.engine import ExecutionPlan, Query, Session, UDFExecutionEngine

    with Session(lambda: UDFExecutionEngine("gp", requirement=req, random_state=7),
                 plan=ExecutionPlan(batch_size=16)) as session:
        handle = session.submit(Query(galaxy).apply_udf(galage, ["redshift"],
                                                        alias="galage"))
        for event in handle.stream():      # anytime verdicts as bounds settle
            ...
        result = handle.result()           # final, bit-identical QueryResult
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.engine.service import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_WORKER_BUDGET,
    QueryHandle,
    QueryService,
)

if TYPE_CHECKING:  # avoid runtime cycles with the executor/query layers
    from repro.engine.executor import UDFExecutionEngine
    from repro.engine.plan import ExecutionPlan
    from repro.engine.query import Query
    from repro.engine.result import QueryResult


class Session:
    """Client facade binding an engine factory and default plan to a service.

    Create one per client (cheap), optionally sharing one long-lived
    :class:`~repro.engine.service.QueryService` across many sessions via
    ``service=``; a session constructs and owns its own service when none
    is passed, closing it on :meth:`close` / context-manager exit.
    """

    def __init__(
        self,
        engine_factory: "Callable[[], UDFExecutionEngine]",
        service: Optional[QueryService] = None,
        plan: "Optional[ExecutionPlan | str]" = None,
        worker_budget: int = DEFAULT_WORKER_BUDGET,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        share_models: bool = False,
    ) -> None:
        """Bind the factory and default plan; start a service if not given.

        ``worker_budget`` / ``queue_limit`` / ``share_models`` configure
        the owned service and are ignored when an external ``service`` is
        supplied (that service's configuration wins).

        ``plan`` may be the string ``"auto"``: every submitted query then
        resolves its execution plan from the catalog profile of the UDF
        it evaluates (:meth:`ExecutionPlan.auto
        <repro.engine.plan.ExecutionPlan.auto>`) — one session default
        that adapts per UDF instead of fixing one knob setting for the
        whole workload.
        """
        self._factory = engine_factory
        self.plan = plan
        self._owns_service = service is None
        self.service = (
            service
            if service is not None
            else QueryService(
                worker_budget=worker_budget,
                queue_limit=queue_limit,
                share_models=share_models,
            )
        )

    def submit(
        self,
        query: "Query",
        plan: "Optional[ExecutionPlan | str]" = None,
        timeout: Optional[float] = None,
        name: Optional[str] = None,
        region: str = "default",
    ) -> QueryHandle:
        """Submit one query on a fresh engine; returns its handle at once.

        ``plan`` overrides the session default for this query only.  See
        :meth:`QueryService.submit
        <repro.engine.service.QueryService.submit>` for ``timeout`` /
        ``region`` semantics and the
        :class:`~repro.exceptions.ServiceOverloadError` admission
        contract.
        """
        engine = self._factory()
        return self.service.submit(
            query,
            engine,
            plan=plan if plan is not None else self.plan,
            timeout=timeout,
            name=name,
            region=region,
        )

    def run(
        self,
        query: "Query",
        plan: "Optional[ExecutionPlan | str]" = None,
        timeout: Optional[float] = None,
        name: Optional[str] = None,
        region: str = "default",
    ) -> "QueryResult":
        """Submit and block for the final result (submit + ``result()``)."""
        return self.submit(
            query, plan=plan, timeout=timeout, name=name, region=region
        ).result()

    def close(self) -> None:
        """Close the owned service (no-op for an externally shared one)."""
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "Session":
        """Context-manager entry."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    def __repr__(self) -> str:
        owned = "owned" if self._owns_service else "shared"
        return f"Session({owned} {self.service!r})"
