"""Columnar uncertain-relation store (U-relations-style layout).

:class:`ColumnarRelation` is the column-oriented twin of
:class:`~repro.engine.tuples.Relation`:

* **certain attributes** live in one numpy *structured array* — one field
  per attribute, one record per tuple;
* **uncertain attributes** are stored succinctly per column as an
  :class:`~repro.distributions.columns.UncertainColumn` (family tag +
  ``(n, k)`` parameter block) when the column is homogeneous over a
  supported family, or as a plain object list otherwise (mixed families,
  joint distributions, empirical outputs, ``None`` for quarantined cells);
* **tuple state** — existence probabilities and per-tuple annotation dicts
  — is kept in parallel arrays/lists.

Distribution objects are hydrated lazily, only at the UDF boundary
(:meth:`ColumnarRelation.row` / iteration), so relational bookkeeping never
pays per-cell object costs.  ``from_relation`` / ``to_relation`` round-trip
bit-identically: hydration rebuilds exactly the parameters that were
encoded, and object-backed columns are carried by reference.

The store itself is representation only; the vectorised execution paths it
feeds (stacked sampling, windowed kernel algebra, batched envelope sorts)
are gated behind :func:`repro.distributions.columns.stacking_supported` so
the engine's determinism contract holds on every platform.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence, Union

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.columns import UncertainColumn, attempt_encode
from repro.engine.schema import Schema
from repro.engine.tuples import Relation, UncertainTuple
from repro.exceptions import SchemaError

#: How one uncertain column is stored: succinctly, or as objects (``None``
#: marks a quarantined cell that never produced a distribution).
ColumnStore = Union[UncertainColumn, list]


class ColumnarRelation:
    """A named columnar collection of uncertain tuples sharing a schema."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        certain: np.ndarray,
        uncertain: dict[str, ColumnStore],
        existence: np.ndarray,
        annotations: list[dict[str, Any]],
    ):
        """Assemble a relation from pre-built column blocks (see ``from_relation``)."""
        n = int(certain.shape[0])
        for column_name, column in uncertain.items():
            if len(column) != n:
                raise SchemaError(
                    f"uncertain column {column_name!r} has {len(column)} rows, "
                    f"expected {n}"
                )
        if existence.shape != (n,) or len(annotations) != n:
            raise SchemaError("existence/annotations must align with the column blocks")
        self.name = name
        self.schema = schema
        self.certain = certain
        self.uncertain = uncertain
        self.existence = existence
        self.annotations = annotations

    # -- construction -------------------------------------------------------------
    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnarRelation":
        """Encode a tuple-store relation column by column.

        Certain attributes become structured-array fields (float64 when
        every value is numeric, object otherwise); each uncertain column is
        packed succinctly when :func:`~repro.distributions.columns
        .attempt_encode` recognises it and kept as an object list when not.
        """
        schema = relation.schema
        rows = list(relation)
        n = len(rows)
        certain_names = [a.name for a in schema if not a.is_uncertain]
        fields = []
        for attr_name in certain_names:
            values = [row[attr_name] for row in rows]
            # Pack numerically only when every value shares one scalar type,
            # so hydration rebuilds the exact Python value (a mixed int/float
            # column would silently promote ints on the round trip).
            kinds = {type(value) for value in values}
            try:
                if kinds <= {bool} or kinds <= {int} or kinds <= {float}:
                    block = np.asarray(values)
                else:
                    raise ValueError(f"attribute {attr_name!r} is not uniformly scalar")
            except (OverflowError, ValueError):
                block = np.empty(n, dtype=object)
                block[:] = values
            fields.append((attr_name, block))
        certain = np.zeros(n, dtype=[(name, block.dtype) for name, block in fields])
        for attr_name, block in fields:
            certain[attr_name] = block
        uncertain: dict[str, ColumnStore] = {}
        for attr_name in schema.uncertain_names():
            cells = [row[attr_name] for row in rows]
            encoded = attempt_encode(cells) if all(
                isinstance(c, Distribution) for c in cells
            ) else None
            uncertain[attr_name] = encoded if encoded is not None else cells
        return cls(
            name=relation.name,
            schema=schema,
            certain=certain,
            uncertain=uncertain,
            existence=np.array([row.existence_probability for row in rows]),
            annotations=[dict(row.annotations) for row in rows],
        )

    def to_relation(self) -> Relation:
        """Hydrate back into a tuple-store relation (the round trip)."""
        relation = Relation(name=self.name, schema=self.schema)
        relation.extend(self)
        return relation

    # -- row access (the hydration boundary) --------------------------------------
    def row(self, i: int) -> UncertainTuple:
        """Materialise tuple ``i``; distribution objects are built here."""
        if not 0 <= i < len(self):
            raise IndexError(f"row {i} out of range for {len(self)} tuples")
        values: dict[str, Any] = {}
        for attribute in self.schema:
            if attribute.is_uncertain:
                column = self.uncertain[attribute.name]
                values[attribute.name] = (
                    column.hydrate(i)
                    if isinstance(column, UncertainColumn)
                    else column[i]
                )
            else:
                value = self.certain[attribute.name][i]
                values[attribute.name] = (
                    value.item() if isinstance(value, np.generic) else value
                )
        return UncertainTuple(
            values=values,
            existence_probability=float(self.existence[i]),
            annotations=dict(self.annotations[i]),
        )

    def column(self, name: str) -> ColumnStore:
        """The stored block for one uncertain attribute."""
        if name not in self.uncertain:
            raise SchemaError(f"no uncertain column {name!r} in {self.name!r}")
        return self.uncertain[name]

    def hydrated_column(self, name: str) -> Sequence[Distribution]:
        """Distribution objects for one uncertain column, in tuple order."""
        column = self.column(name)
        if isinstance(column, UncertainColumn):
            return column.hydrate_all()
        return list(column)

    def __iter__(self) -> Iterator[UncertainTuple]:
        return (self.row(i) for i in range(len(self)))

    def __len__(self) -> int:
        return int(self.certain.shape[0])

    def __repr__(self) -> str:
        packed = sum(
            isinstance(c, UncertainColumn) for c in self.uncertain.values()
        )
        return (
            f"ColumnarRelation(name={self.name!r}, n_tuples={len(self)}, "
            f"packed_columns={packed}/{len(self.uncertain)})"
        )
