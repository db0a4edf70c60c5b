"""A small fluent query builder over uncertain relations.

This is the user-facing layer of the query-engine substrate.  It builds the
physical plans of the operator module for queries shaped like the paper's
Q1 and Q2::

    # Q1: Select G.objID, GalAge(G.redshift) From Galaxy G
    result = (
        Query(galaxy)
        .apply_udf(galage, ["redshift"], alias="galage")
        .project(["objID", "galage"])
        .run(engine)
    )

    # Q2-style: join + UDF + range predicate on the UDF output
    result = (
        Query(galaxy).alias("G1")
        .cross_join(galaxy, alias="G2", pair_filter=lambda t: t["G1.objID"] < t["G2.objID"])
        .where_udf(distance, ["G1.ra_offset", "G1.dec_offset", "G2.ra_offset", "G2.dec_offset"],
                   alias="dist", low=0.5, high=2.0, threshold=0.1)
        .apply_udf(comove_vol, ["G1.redshift", "G2.redshift"], alias="covol")
        .run(engine)
    )
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.filtering import SelectionPredicate
from repro.engine.executor import UDFExecutionEngine
from repro.engine.operators import (
    ApplyUDF,
    CrossJoin,
    Operator,
    Project,
    Scan,
    SelectUDF,
    SelectWhere,
)
from repro.engine.plan import ExecutionPlan, is_auto_plan
from repro.engine.result import QueryResult
from repro.engine.tuples import Relation, UncertainTuple
from repro.exceptions import QueryError
from repro.udf.base import UDF


class Query:
    """Fluent builder that accumulates a plan of deferred operators."""

    def __init__(self, relation: Relation):
        self._relation = relation
        self._alias: str | None = None
        #: Deferred plan construction steps; each maps an Operator to the next.
        self._steps: list[Callable[[Operator, UDFExecutionEngine], Operator]] = []

    # -- plan-building steps ----------------------------------------------------------
    def alias(self, name: str) -> "Query":
        """Name this relation for use as a join prefix."""
        if not name:
            raise QueryError("alias must be non-empty")
        self._alias = name
        return self

    def cross_join(
        self,
        other: Relation,
        alias: str,
        pair_filter: Callable[[UncertainTuple], bool] | None = None,
    ) -> "Query":
        """Cartesian-join with another relation; attributes become prefixed."""
        left_alias = self._alias or self._relation.name
        if left_alias == alias:
            raise QueryError("join aliases must differ")

        def _build(child: Operator, engine: UDFExecutionEngine) -> Operator:
            return CrossJoin(
                child,
                Scan(other),
                left_prefix=left_alias,
                right_prefix=alias,
                pair_filter=pair_filter,
            )

        self._steps.append(_build)
        return self

    def where(self, predicate: Callable[[UncertainTuple], bool]) -> "Query":
        """Filter on certain attributes with an arbitrary Python predicate."""

        def _build(child: Operator, engine: UDFExecutionEngine) -> Operator:
            return SelectWhere(child, predicate)

        self._steps.append(_build)
        return self

    def apply_udf(
        self,
        udf: UDF | str,
        arguments: Sequence[str],
        alias: str,
        plan: ExecutionPlan | str | None = None,
    ) -> "Query":
        """Evaluate a UDF on each tuple and keep its output distribution.

        Parameters
        ----------
        udf:
            The black-box function to evaluate, or a registered catalog
            name (resolved case-insensitively through
            :func:`~repro.udf.catalog.default_catalog` at plan-build
            time).
        arguments:
            Input attribute names forming the UDF's argument vector.
        alias:
            Name of the derived output attribute.
        plan:
            One :class:`~repro.engine.plan.ExecutionPlan` describing the
            whole execution configuration — batching, sharding, overlap
            window, cross-tuple lookahead, merge policy, evaluation
            transport — validated as a unit (knob conflicts raise a typed
            :class:`~repro.exceptions.PlanError` naming the precedence
            rule) and resolved to the composed executor stack.  The
            string ``"auto"`` defers the choice to the profile-driven
            planner (:meth:`ExecutionPlan.auto
            <repro.engine.plan.ExecutionPlan.auto>`): the knobs are
            picked from the UDF's catalog profile once the operator knows
            the engine and the input size.  ``None`` defers to the
            engine's default plan (the ``Session.submit`` seam).

        Returns
        -------
        Query
            ``self``, for fluent chaining.

        Raises
        ------
        QueryError
            For unknown argument attributes or an alias collision (at
            plan-build time), or — as
            :class:`~repro.exceptions.PlanError`, raised *here*, at the
            builder call — a string plan other than ``"auto"``.
        """
        is_auto_plan(plan)  # a typo'd spelling fails where the user wrote it

        def _build(child: Operator, engine: UDFExecutionEngine) -> Operator:
            return ApplyUDF(child, udf, arguments, alias, engine, plan=plan)

        self._steps.append(_build)
        return self

    def where_udf(
        self,
        udf: UDF | str,
        arguments: Sequence[str],
        alias: str,
        low: float,
        high: float,
        threshold: float = 0.1,
        plan: ExecutionPlan | str | None = None,
    ) -> "Query":
        """Evaluate a UDF under a range predicate and drop improbable tuples.

        The UDF output distribution is restricted to ``[low, high]``; tuples
        whose probability mass inside that interval is confidently below
        ``threshold`` are dropped by the online-filtering machinery.  The
        execution configuration (``plan=``, including the ``"auto"``
        spelling) and name-based ``udf`` resolution behave exactly as on
        :meth:`apply_udf`: each tuple is evaluated as the apply query would
        evaluate it, then tested on the envelope it committed.

        Returns
        -------
        Query
            ``self``, for fluent chaining.

        Raises
        ------
        QueryError
            For unknown argument attributes or an alias collision (at
            plan-build time), or — as
            :class:`~repro.exceptions.PlanError`, raised *here*, at the
            builder call — a string plan other than ``"auto"``.
        """
        predicate = SelectionPredicate(low=low, high=high, threshold=threshold)
        is_auto_plan(plan)  # a typo'd spelling fails where the user wrote it

        def _build(child: Operator, engine: UDFExecutionEngine) -> Operator:
            return SelectUDF(child, udf, arguments, alias, predicate, engine, plan=plan)

        self._steps.append(_build)
        return self

    def project(self, names: Sequence[str]) -> "Query":
        """Keep only the named attributes in the result."""

        def _build(child: Operator, engine: UDFExecutionEngine) -> Operator:
            return Project(child, names)

        self._steps.append(_build)
        return self

    # -- execution --------------------------------------------------------------------
    def plan(self, engine: UDFExecutionEngine) -> Operator:
        """Build the physical operator tree without executing it."""
        operator: Operator = Scan(self._relation)
        for step in self._steps:
            operator = step(operator, engine)
        return operator

    def run(self, engine: UDFExecutionEngine, name: str = "result") -> QueryResult:
        """Execute the query and materialise the result.

        Returns a :class:`~repro.engine.result.QueryResult` wrapping the
        materialised relation together with phase timings, per-tuple
        verdicts and the executed plan; it iterates/indexes exactly like
        the bare :class:`~repro.engine.tuples.Relation` it wraps.
        """
        return self.plan(engine).execute(name=name)
