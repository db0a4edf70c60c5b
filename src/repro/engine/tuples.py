"""Uncertain tuples and relations (substrate S14).

An :class:`UncertainTuple` maps attribute names to either plain Python
values (certain attributes) or :class:`~repro.distributions.base.Distribution`
objects (uncertain attributes).  The tuple also carries an existence
probability, which starts at 1 and is reduced by probabilistic selection
predicates downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.distributions.base import Distribution
from repro.distributions.multivariate import IndependentJoint, PointMass
from repro.engine.schema import Schema
from repro.exceptions import SchemaError


@dataclass
class UncertainTuple:
    """One row of an uncertain relation."""

    values: dict[str, Any]
    #: Probability that this tuple exists at all (reduced by filtering).
    existence_probability: float = 1.0
    #: Arbitrary per-tuple annotations added by operators (e.g. error bounds).
    annotations: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        if name not in self.values:
            raise SchemaError(f"tuple has no attribute {name!r}")
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def is_uncertain(self, name: str) -> bool:
        """Whether the value stored under ``name`` is a distribution."""
        return isinstance(self[name], Distribution)

    def input_distribution(self, names: Sequence[str]) -> Distribution:
        """Joint distribution of the referenced attributes, in order.

        Certain attributes become point masses so UDF argument lists can mix
        uncertain and constant arguments (as ``ComoveVol(z1, z2, AREA)`` does).
        """
        if not names:
            raise SchemaError("at least one attribute must be referenced")
        components: list[Distribution] = []
        for name in names:
            value = self[name]
            if isinstance(value, Distribution):
                components.append(value)
            else:
                components.append(PointMass(float(value)))
        if len(components) == 1:
            return components[0]
        return IndependentJoint(components)

    def merged_with(self, other: "UncertainTuple", prefix_self: str, prefix_other: str) -> "UncertainTuple":
        """Combine two tuples into one with prefixed attribute names (joins)."""
        merged = {f"{prefix_self}.{k}": v for k, v in self.values.items()}
        merged.update({f"{prefix_other}.{k}": v for k, v in other.values.items()})
        return UncertainTuple(
            values=merged,
            existence_probability=self.existence_probability * other.existence_probability,
        )

    def with_value(self, name: str, value: Any) -> "UncertainTuple":
        """Copy of the tuple with one additional / replaced attribute."""
        new_values = dict(self.values)
        new_values[name] = value
        return UncertainTuple(
            values=new_values,
            existence_probability=self.existence_probability,
            annotations=dict(self.annotations),
        )


@dataclass
class Relation:
    """A named collection of uncertain tuples sharing a schema."""

    name: str
    schema: Schema
    tuples: list[UncertainTuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        for row in self.tuples:
            self._validate(row)

    def _validate(self, row: UncertainTuple) -> None:
        # ``None`` is allowed for an uncertain attribute: it means the value
        # is unavailable — a quarantined (degraded) UDF evaluation that never
        # produced a distribution.  Such rows carry a ``<alias>_degraded``
        # annotation from the UDF operators.
        for attribute in self.schema:
            if attribute.name not in row:
                raise SchemaError(
                    f"tuple {row.values} is missing attribute {attribute.name!r}"
                )
            value = row[attribute.name]
            if (
                attribute.is_uncertain
                and value is not None
                and not isinstance(value, Distribution)
            ):
                raise SchemaError(
                    f"attribute {attribute.name!r} is declared uncertain but the "
                    f"tuple stores a plain value"
                )

    def insert(self, row: UncertainTuple) -> None:
        """Append a tuple after validating it against the schema."""
        self._validate(row)
        self.tuples.append(row)

    def extend(self, rows: Iterable[UncertainTuple]) -> None:
        """Append many tuples."""
        for row in rows:
            self.insert(row)

    def __iter__(self) -> Iterator[UncertainTuple]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __repr__(self) -> str:
        return f"Relation(name={self.name!r}, n_tuples={len(self.tuples)})"
