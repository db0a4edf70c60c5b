"""Physical query operators over uncertain relations (substrate S14).

The operators are iterator-style: each consumes a stream of
:class:`~repro.engine.tuples.UncertainTuple` and produces another stream.
They cover what queries Q1 and Q2 of the paper need:

* :class:`Scan`          — read a stored relation,
* :class:`Project`       — keep a subset of attributes,
* :class:`SelectWhere`   — filter on certain attributes with a plain predicate,
* :class:`CrossJoin`     — pair tuples of two inputs with prefixed names,
* :class:`ApplyUDF`      — evaluate a UDF on uncertain attributes, attaching
  the output distribution and its error bound to the tuple,
* :class:`SelectUDF`     — evaluate a UDF under a range predicate with online
  filtering, dropping low-probability tuples and recording the tuple
  existence probability of the survivors.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.filtering import SelectionPredicate
from repro.engine.batch import iter_batches
from repro.engine.executor import UDFExecutionEngine
from repro.engine.parallel import ParallelExecutor
from repro.engine.plan import ExecutionPlan, PlannedExecutor, installed_retry, is_auto_plan
from repro.engine.result import QueryResult, classify_rows
from repro.engine.schema import Attribute, AttributeKind, Schema
from repro.engine.tuples import Relation, UncertainTuple
from repro.exceptions import QueryError
from repro.timing import PhaseTimings
from repro.udf.base import UDF


def _resolve_catalog_udf(udf: UDF | str) -> UDF:
    """Resolve a name-based UDF reference through the default catalog.

    The query surface accepts a plain string wherever it accepts a UDF —
    ``apply_udf("galage", ...)`` — resolved here against
    :func:`~repro.udf.catalog.default_catalog` (case-insensitive, like
    every catalog lookup).  A :class:`~repro.exceptions.UDFError` from the
    lookup names the registered alternatives.
    """
    if isinstance(udf, str):
        from repro.udf.catalog import default_catalog

        return default_catalog().get(udf)
    return udf


def _scan_relation_size(child: Operator) -> int | None:
    """Best-effort input cardinality for auto-planning: the first Scan's size.

    Walks the child tree for the first stored relation; joins and filters
    change the true cardinality, so this is a planning *hint* (it only
    caps the chunk size and gates cross-tuple lookahead), never a
    correctness input.
    """
    for node in child._tree_nodes():
        relation = getattr(node, "relation", None)
        if relation is not None:
            try:
                return len(relation)
            except TypeError:
                return None
    return None


def _udf_blocks(node, predicate: SelectionPredicate | None = None):
    """Yield ``(rows, outputs)`` blocks of a UDF node, as its plan executes.

    Sharding needs the whole input (materialise, fan out, re-attach); the
    chunk executor takes ``batch_size`` rows at a time (one, under the
    per-tuple plan).  The retry policy is installed around the whole scan.
    """
    executor = node._executor
    if isinstance(executor, ParallelExecutor):
        blocks: Iterable = [list(node.child)]
    else:
        blocks = iter_batches(node.child, executor.batch_size)
    with installed_retry(node.udf, node.plan):
        for rows in blocks:
            inputs = [row.input_distribution(node.argument_names) for row in rows]
            if predicate is None:
                outputs = executor.compute_batch(node.udf, inputs)
            else:
                outputs = executor.compute_batch_with_predicate(node.udf, inputs, predicate)
            yield rows, outputs


class Operator(abc.ABC):
    """A node of a physical query plan."""

    @abc.abstractmethod
    def schema(self) -> Schema:
        """Schema of the tuples this operator produces."""

    @abc.abstractmethod
    def __iter__(self) -> Iterator[UncertainTuple]:
        """Produce the output tuples."""

    def _tree_nodes(self) -> Iterator["Operator"]:
        """This operator and every descendant, preorder."""
        yield self
        for attr in ("child", "left", "right"):
            node = getattr(self, attr, None)
            if isinstance(node, Operator):
                yield from node._tree_nodes()

    def _tree_epsilon(self) -> float | None:
        """The accuracy requirement's epsilon of the first engine-bound
        node in the tree (``None`` for plain relational plans)."""
        for node in self._tree_nodes():
            engine = getattr(node, "engine", None)
            if engine is not None:
                return engine.requirement.epsilon
        return None

    def _tree_plan(self) -> ExecutionPlan | None:
        """The resolved plan of the first UDF node in the tree, if any."""
        for node in self._tree_nodes():
            plan = getattr(node, "plan", None)
            if isinstance(plan, ExecutionPlan):
                return plan
        return None

    def _merge_executor_timings(self, timings: PhaseTimings) -> None:
        """Fold every UDF node's executor phases (``sampling`` /
        ``inference`` / ``refinement`` / ``filtering`` / ``speculation``)
        into ``timings`` — call once, after the tree has been consumed."""
        for node in self._tree_nodes():
            executor = getattr(node, "_executor", None)
            if executor is not None:
                timings.merge(executor.timings)

    def execute(self, name: str = "result") -> QueryResult:
        """Materialise the operator's output into a typed query result.

        Returns a :class:`~repro.engine.result.QueryResult` wrapping the
        relation (iteration, ``len``, attribute access all delegate to
        it, so pre-existing consumers of the bare relation keep working)
        plus the executed plan, wall-clock timings and one
        certain/possible :class:`~repro.engine.result.TupleVerdict` per
        row — classified against the accuracy requirement of the plan's
        engine, when the tree has one.
        """
        timings = PhaseTimings()
        result = Relation(name=name, schema=self.schema())
        with timings.measure("execute"):
            for row in self:
                result.insert(row)
        self._merge_executor_timings(timings)
        return QueryResult(
            result,
            plan=self._tree_plan(),
            timings=timings,
            verdicts=classify_rows(result.tuples, self._tree_epsilon()),
        )


class Scan(Operator):
    """Full scan of a stored relation."""

    def __init__(self, relation: Relation):
        self.relation = relation

    def schema(self) -> Schema:
        """Schema of the stored relation, unchanged."""
        return self.relation.schema

    def __iter__(self) -> Iterator[UncertainTuple]:
        return iter(self.relation)


class Project(Operator):
    """Keep only the named attributes (plus any derived annotations)."""

    def __init__(self, child: Operator, names: Sequence[str]):
        if not names:
            raise QueryError("projection requires at least one attribute")
        self.child = child
        self.names = list(names)
        for name in self.names:
            if name not in child.schema():
                raise QueryError(f"cannot project unknown attribute {name!r}")

    def schema(self) -> Schema:
        """The child schema restricted to the projected attributes."""
        return self.child.schema().project(self.names)

    def __iter__(self) -> Iterator[UncertainTuple]:
        for row in self.child:
            projected = {name: row[name] for name in self.names}
            out = UncertainTuple(
                values=projected,
                existence_probability=row.existence_probability,
                annotations=dict(row.annotations),
            )
            yield out


class SelectWhere(Operator):
    """Filter tuples with an arbitrary predicate over certain attributes."""

    def __init__(self, child: Operator, predicate: Callable[[UncertainTuple], bool]):
        self.child = child
        self.predicate = predicate

    def schema(self) -> Schema:
        """The child schema, unchanged (filtering drops tuples, not columns)."""
        return self.child.schema()

    def __iter__(self) -> Iterator[UncertainTuple]:
        for row in self.child:
            if self.predicate(row):
                yield row


class CrossJoin(Operator):
    """Cartesian product of two inputs with prefixed attribute names.

    Query Q2 joins ``Galaxy AS G1`` with ``Galaxy AS G2``; the prefixes
    reproduce that aliasing.  An optional ``pair_filter`` lets callers prune
    pairs cheaply on certain attributes (e.g. ``G1.objID < G2.objID``).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_prefix: str = "L",
        right_prefix: str = "R",
        pair_filter: Callable[[UncertainTuple], bool] | None = None,
    ):
        if left_prefix == right_prefix:
            raise QueryError("join prefixes must differ")
        self.left = left
        self.right = right
        self.left_prefix = left_prefix
        self.right_prefix = right_prefix
        self.pair_filter = pair_filter

    def schema(self) -> Schema:
        """Both input schemas side by side, attribute names prefixed."""
        left_schema = self.left.schema().prefixed(self.left_prefix)
        right_schema = self.right.schema().prefixed(self.right_prefix)
        return Schema(left_schema.attributes + right_schema.attributes)

    def __iter__(self) -> Iterator[UncertainTuple]:
        right_rows = list(self.right)
        for left_row in self.left:
            for right_row in right_rows:
                merged = left_row.merged_with(right_row, self.left_prefix, self.right_prefix)
                if self.pair_filter is None or self.pair_filter(merged):
                    yield merged


class _UDFCall(Operator):
    """What :class:`ApplyUDF` and :class:`SelectUDF` share: one validated UDF call.

    ``udf`` may be a catalog name (resolved through
    :func:`~repro.udf.catalog.default_catalog`).  With no ``plan=``, the
    engine's default plan (installed at engine construction, or by
    :meth:`~repro.engine.session.Session.submit`) applies — the seam that
    lets one plan configure a whole served query without threading it
    through every builder call.  The ``"auto"`` spelling — passed directly,
    or installed as the engine default — resolves here, where the UDF and
    the input size are both known, via
    :meth:`~repro.engine.plan.ExecutionPlan.auto`.
    """

    def __init__(
        self,
        child: Operator,
        udf: UDF | str,
        argument_names: Sequence[str],
        alias: str,
        engine: UDFExecutionEngine,
        plan: ExecutionPlan | str | None = None,
    ):
        """Validate the call against the child's schema and resolve its executor.

        Raises
        ------
        QueryError
            When ``argument_names`` is empty or references unknown
            attributes, when ``alias`` collides with an existing attribute,
            or (as :class:`~repro.exceptions.PlanError`) when the plan
            cannot be resolved against ``engine``.
        """
        if not argument_names:
            raise QueryError("a UDF call needs at least one argument attribute")
        for name in argument_names:
            if name not in child.schema():
                raise QueryError(f"UDF argument {name!r} is not in the input schema")
        if alias in child.schema():
            raise QueryError(f"alias {alias!r} collides with an existing attribute")
        self.child = child
        self.udf = _resolve_catalog_udf(udf)
        self.argument_names = list(argument_names)
        self.alias = alias
        self.engine = engine
        if plan is None:
            plan = engine.plan if engine.plan is not None else ExecutionPlan()
        if is_auto_plan(plan):
            plan = ExecutionPlan.auto(self.udf, _scan_relation_size(child))
        self.plan = plan
        self._executor: PlannedExecutor = plan.resolve(engine)

    def _annotated(self, row: UncertainTuple, output, distribution) -> UncertainTuple:
        """``row`` with ``distribution`` under the alias and the call's annotations."""
        out = row.with_value(self.alias, distribution)
        out.annotations[f"{self.alias}_error_bound"] = output.error_bound
        out.annotations[f"{self.alias}_udf_calls"] = output.udf_calls
        out.annotations[f"{self.alias}_charged_time"] = output.charged_time
        if getattr(output, "failed", False):
            # Quarantined evaluation: the row keeps the last distribution /
            # bound OLGAPRO had (``None`` / NaN when it failed before any
            # existed) and the annotation routes it to a ``degraded``
            # verdict instead of aborting the query.
            out.annotations[f"{self.alias}_degraded"] = True
        return out


class ApplyUDF(_UDFCall):
    """Evaluate a UDF on each tuple, adding the output distribution as a column.

    The derived attribute stores the empirical output distribution; the
    claimed error bound is recorded in ``annotations[alias + "_error_bound"]``
    and the UDF cost in ``annotations[alias + "_udf_calls"]``.

    How the evaluation executes is described by one
    :class:`~repro.engine.plan.ExecutionPlan` (``plan=``): batching,
    sharding, overlapped refinement windows, cross-tuple pipelining and
    the evaluation transport, validated as a unit and resolved to the
    composed executor stack.
    """

    def schema(self) -> Schema:
        """The child schema plus the derived uncertain output attribute."""
        derived = Attribute(
            self.alias,
            AttributeKind.UNCERTAIN,
            description=f"{self.udf.name}({', '.join(self.argument_names)})",
        )
        return self.child.schema().with_attribute(derived)

    def __iter__(self) -> Iterator[UncertainTuple]:
        for rows, outputs in _udf_blocks(self):
            for row, output in zip(rows, outputs):
                yield self._annotated(row, output, output.distribution)


class SelectUDF(_UDFCall):
    """Evaluate a UDF under a range predicate and filter improbable tuples.

    Implements the WHERE clause of query Q2: the UDF output distribution is
    restricted to ``[low, high]``, the tuple existence probability becomes
    the probability mass inside that interval, and tuples whose existence
    probability is (confidently) below the threshold are dropped using the
    online-filtering machinery.
    """

    def __init__(
        self,
        child: Operator,
        udf: UDF | str,
        argument_names: Sequence[str],
        alias: str,
        predicate: SelectionPredicate,
        engine: UDFExecutionEngine,
        plan: ExecutionPlan | str | None = None,
    ):
        """Validate the predicated UDF call exactly as :class:`ApplyUDF` does."""
        super().__init__(child, udf, argument_names, alias, engine, plan)
        self.predicate = predicate

    def schema(self) -> Schema:
        """The child schema plus the predicate-restricted output attribute."""
        derived = Attribute(
            self.alias,
            AttributeKind.UNCERTAIN,
            description=(
                f"{self.udf.name}({', '.join(self.argument_names)}) restricted to "
                f"[{self.predicate.low}, {self.predicate.high}]"
            ),
        )
        return self.child.schema().with_attribute(derived)

    def _filtered(self, row: UncertainTuple, output) -> UncertainTuple | None:
        if getattr(output, "failed", False):
            # Quarantined evaluation: the predicate could not be decided, so
            # the tuple is *retained* as degraded — online filtering only
            # excludes tuples it has confidently ruled out, and a failed
            # evaluation rules out nothing.
            return self._annotated(row, output, output.distribution)
        if output.dropped or output.distribution is None:
            return None
        truncation = output.distribution.truncate(self.predicate.low, self.predicate.high)
        existence = row.existence_probability * truncation.existence_probability
        if truncation.distribution is None or existence < self.predicate.threshold:
            return None
        out = self._annotated(row, output, truncation.distribution)
        out.existence_probability = existence
        return out

    def __iter__(self) -> Iterator[UncertainTuple]:
        for rows, outputs in _udf_blocks(self, self.predicate):
            for row, output in zip(rows, outputs):
                survivor = self._filtered(row, output)
                if survivor is not None:
                    yield survivor


def materialize(rows: Iterable[UncertainTuple], schema: Schema, name: str = "result") -> Relation:
    """Collect an operator's output stream into a relation."""
    relation = Relation(name=name, schema=schema)
    for row in rows:
        relation.insert(row)
    return relation
