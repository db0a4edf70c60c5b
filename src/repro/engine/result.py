"""Typed query results: relation/outputs + timings + verdicts + plan.

Part 2 of the API redesign: every execution entry point —
:meth:`UDFExecutionEngine.compute_with_plan
<repro.engine.executor.UDFExecutionEngine.compute_with_plan>`,
:meth:`Operator.execute <repro.engine.operators.Operator.execute>`,
:meth:`Query.run <repro.engine.query.Query.run>` and the serving layer
(:mod:`repro.engine.service`) — returns one :class:`QueryResult` instead of
a bare :class:`~repro.engine.tuples.Relation` or ``list`` of
:class:`~repro.engine.executor.ComputedOutput`.  The result carries

* the payload itself (:attr:`QueryResult.relation` or
  :attr:`QueryResult.outputs`),
* the :class:`~repro.timing.PhaseTimings` the execution accumulated,
* one :class:`TupleVerdict` per produced tuple — the ``certain`` /
  ``possible`` answer vocabulary of Feng, Glavic and Kennedy
  (arXiv:2302.08676) applied to OLGAPRO's per-tuple ε/δ bounds, the same
  classification the serving layer streams as anytime events — and
* the :class:`~repro.engine.plan.ExecutionPlan` that was executed.

Back-compat contract: a :class:`QueryResult` *is* its payload for every
pre-existing consumer — iteration, ``len``, indexing, membership and
attribute access all delegate to the wrapped relation/list, so code (and
tests) written against the bare return types keeps working unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Sequence

from repro.engine.tuples import Relation, UncertainTuple
from repro.exceptions import QueryError
from repro.timing import PhaseTimings

if TYPE_CHECKING:  # avoid a runtime cycle (executor/plan import this module)
    from repro.engine.executor import ComputedOutput
    from repro.engine.plan import ExecutionPlan

#: The anytime answer vocabulary: a tuple the query *proved* (existence
#: certain and the claimed error bound within the accuracy requirement),
#: one it can only *suggest*, one that was filtered out, or one whose UDF
#: evaluation was quarantined after the retry policy was exhausted (a
#: *degraded* answer carrying the last bound the online algorithm had).
VERDICT_CERTAIN = "certain"
VERDICT_POSSIBLE = "possible"
VERDICT_EXCLUDED = "excluded"
VERDICT_DEGRADED = "degraded"


@dataclass(frozen=True)
class TupleVerdict:
    """Per-tuple anytime answer: how settled one output tuple is.

    ``verdict`` is ``"certain"`` when the tuple certainly exists
    (existence probability 1) and its claimed error bound is within the
    accuracy requirement; ``"possible"`` when it survives but one of those
    guarantees is open (sub-unit existence probability or a bound above
    the requirement — plain Monte Carlo claims the requirement's ε, so
    it is never open on the bound);
    ``"excluded"`` when online filtering dropped it; ``"degraded"`` when
    the tuple was quarantined — its UDF evaluations kept failing after the
    retry policy was exhausted, so the answer is the last (unconverged)
    state the online algorithm had rather than a converged one, with the
    matching honest bound (NaN when it failed before any bound existed).
    ``bound`` is the
    claimed error bound backing the verdict (the largest bound annotation
    for relation rows) and ``version`` a per-result monotonic sequence
    number — the same quadruple the serving layer streams as
    :class:`~repro.engine.service.QueryEvent` while bounds converge.
    """

    tuple_id: int
    verdict: str
    bound: float
    version: int


def _bound_within(bound: float, epsilon: Optional[float]) -> bool:
    """Whether a claimed bound is a *closed* guarantee under ``epsilon``."""
    if math.isnan(bound):
        return False
    if epsilon is None:
        return bound <= 0.0
    return bound <= epsilon


def classify_output(
    output: "ComputedOutput", epsilon: Optional[float], tuple_id: int, version: int
) -> TupleVerdict:
    """Verdict for one :class:`~repro.engine.executor.ComputedOutput`.

    ``failed`` is checked before ``dropped``/missing-distribution: a
    quarantined tuple often has no distribution either, but it was never
    *excluded* — its answer is degraded, not ruled out.
    """
    bound = float(output.error_bound)
    if getattr(output, "failed", False):
        return TupleVerdict(tuple_id, VERDICT_DEGRADED, bound, version)
    if output.dropped or output.distribution is None:
        return TupleVerdict(tuple_id, VERDICT_EXCLUDED, bound, version)
    if output.existence_probability >= 1.0 and _bound_within(bound, epsilon):
        return TupleVerdict(tuple_id, VERDICT_CERTAIN, bound, version)
    return TupleVerdict(tuple_id, VERDICT_POSSIBLE, bound, version)


def classify_row(
    row: UncertainTuple, epsilon: Optional[float], tuple_id: int, version: int
) -> TupleVerdict:
    """Verdict for one materialised relation row.

    The bound is the largest ``*_error_bound`` annotation the UDF
    operators recorded (0 when the row carries none — plain relational
    work makes no approximation claim).  Excluded tuples never reach a
    relation; a quarantined evaluation reaches it carrying a
    ``*_degraded`` annotation and classifies as ``degraded``, like its
    :class:`ComputedOutput` counterpart.
    """
    bounds = [
        float(value)
        for key, value in row.annotations.items()
        if key.endswith("_error_bound")
    ]
    bound = max(bounds) if bounds else 0.0
    if any(
        value for key, value in row.annotations.items() if key.endswith("_degraded")
    ):
        return TupleVerdict(tuple_id, VERDICT_DEGRADED, bound, version)
    closed = _bound_within(bound, epsilon) if bounds else True
    if row.existence_probability >= 1.0 and closed:
        return TupleVerdict(tuple_id, VERDICT_CERTAIN, bound, version)
    return TupleVerdict(tuple_id, VERDICT_POSSIBLE, bound, version)


def classify_outputs(
    outputs: Sequence["ComputedOutput"], epsilon: Optional[float]
) -> List[TupleVerdict]:
    """One verdict per output, versions in tuple order."""
    return [
        classify_output(output, epsilon, index, index)
        for index, output in enumerate(outputs)
    ]


def classify_rows(
    rows: Sequence[UncertainTuple], epsilon: Optional[float]
) -> List[TupleVerdict]:
    """One verdict per relation row, versions in row order."""
    return [classify_row(row, epsilon, index, index) for index, row in enumerate(rows)]


class QueryResult:
    """A query's payload plus its execution record.

    Wraps either a :class:`~repro.engine.tuples.Relation` (operator /
    query / service execution) or a ``list`` of
    :class:`~repro.engine.executor.ComputedOutput` (the engine's
    plan-driven evaluation), and delegates the payload's protocol —
    ``__iter__`` / ``__len__`` / ``__getitem__`` / ``__contains__`` /
    attribute access — so every pre-QueryResult consumer keeps working.

    Attributes
    ----------
    plan:
        The :class:`~repro.engine.plan.ExecutionPlan` that was executed
        (``None`` for plain relational operators with no UDF work).
    timings:
        Wall-clock :class:`~repro.timing.PhaseTimings`: always an
        ``execute`` phase, plus whatever phases the resolved executor
        accumulated (``sampling`` / ``inference`` / ``refinement`` are
        *work* time and may overlap the ``execute`` wall-clock).
    verdicts:
        One :class:`TupleVerdict` per produced tuple, in order.
    """

    def __init__(
        self,
        value: Any,
        plan: "Optional[ExecutionPlan]" = None,
        timings: Optional[PhaseTimings] = None,
        verdicts: Optional[Sequence[TupleVerdict]] = None,
    ) -> None:
        """Wrap ``value`` (a relation or an output list) with its record."""
        self._value = value
        self.plan = plan
        self.timings = timings if timings is not None else PhaseTimings()
        self.verdicts: List[TupleVerdict] = list(verdicts) if verdicts else []

    # -- typed payload accessors --------------------------------------------------
    @property
    def relation(self) -> Relation:
        """The materialised relation (raises when this wraps raw outputs)."""
        if not isinstance(self._value, Relation):
            raise QueryError(
                "this QueryResult wraps raw engine outputs, not a relation; "
                "use .outputs"
            )
        return self._value

    @property
    def outputs(self) -> "List[ComputedOutput]":
        """The raw per-tuple outputs (raises when this wraps a relation)."""
        if isinstance(self._value, Relation):
            raise QueryError(
                "this QueryResult wraps a materialised relation, not raw "
                "outputs; use .relation"
            )
        return self._value

    def certain(self) -> List[TupleVerdict]:
        """The verdicts classified ``certain``."""
        return [v for v in self.verdicts if v.verdict == VERDICT_CERTAIN]

    def possible(self) -> List[TupleVerdict]:
        """The verdicts classified ``possible``."""
        return [v for v in self.verdicts if v.verdict == VERDICT_POSSIBLE]

    def degraded(self) -> List[TupleVerdict]:
        """The verdicts classified ``degraded`` (quarantined tuples)."""
        return [v for v in self.verdicts if v.verdict == VERDICT_DEGRADED]

    # -- payload protocol delegation (back-compat) --------------------------------
    def __iter__(self) -> Iterator[Any]:
        return iter(self._value)

    def __len__(self) -> int:
        return len(self._value)

    def __getitem__(self, index: Any) -> Any:
        return self._value[index]

    def __contains__(self, item: Any) -> bool:
        return item in self._value

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, QueryResult):
            return bool(self._value == other._value)
        return bool(self._value == other)

    __hash__ = None  # type: ignore[assignment]  # mutable payload

    def __getattr__(self, name: str) -> Any:
        # Only reached when normal lookup fails: delegate to the payload
        # (Relation.name/.schema/.tuples, list methods, ...).
        return getattr(object.__getattribute__(self, "_value"), name)

    def __repr__(self) -> str:
        kind = type(self._value).__name__
        return (
            f"QueryResult({kind}, n={len(self._value)}, "
            f"certain={len(self.certain())}, possible={len(self.possible())})"
        )
