"""ColumnarRelation: encoding, lazy hydration, round trip, query integration.

Contracts under test (see :mod:`repro.engine.columnar`):

* ``from_relation`` packs certain attributes into one structured array
  (preserving exact Python scalar types on the round trip) and packs each
  homogeneous uncertain column succinctly, while heterogeneous / joint /
  quarantined columns stay object-backed;
* distribution objects are built lazily, only at the hydration boundary
  (``row`` / iteration), and hydration reconstructs the exact types and
  parameters that were encoded;
* ``to_columnar().to_relation()`` round-trips bit-identically;
* a ``Query`` scans a ``ColumnarRelation`` directly, and running it under
  ``ExecutionPlan(storage="columnar")`` matches the tuple-store query bit
  for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.distributions.columns import UncertainColumn
from repro.distributions.continuous import Gaussian, TruncatedGaussian, Uniform
from repro.engine import (
    Attribute,
    AttributeKind,
    ColumnarRelation,
    ExecutionPlan,
    Query,
    Relation,
    Schema,
    UDFExecutionEngine,
    UncertainTuple,
    generate_galaxy_relation,
)
from repro.exceptions import SchemaError
from repro.udf.synthetic import reference_function

REQUIREMENT = AccuracyRequirement(epsilon=0.2, delta=0.05)


def _galaxy(n=4, seed=5):
    return generate_galaxy_relation(n, random_state=seed)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def test_from_relation_packs_certain_and_homogeneous_uncertain_columns():
    columnar = ColumnarRelation.from_relation(_galaxy())
    # Certain attributes keep exact scalar dtypes in one structured array.
    assert columnar.certain.dtype.names == ("objID", "mag_r")
    assert columnar.certain["objID"].dtype.kind == "i"
    assert columnar.certain["mag_r"].dtype.kind == "f"
    # Homogeneous Gaussian columns pack; the TruncatedGaussian column (an
    # unsupported family) stays object-backed.
    assert isinstance(columnar.column("ra_offset"), UncertainColumn)
    assert isinstance(columnar.column("dec_offset"), UncertainColumn)
    assert isinstance(columnar.column("redshift"), list)
    assert "packed_columns=2/3" in repr(columnar)


def test_mixed_type_certain_column_stays_object_backed():
    schema = Schema.of(
        [
            Attribute("tag", AttributeKind.CERTAIN),
            Attribute("x", AttributeKind.UNCERTAIN),
        ]
    )
    relation = Relation(name="mixed", schema=schema)
    relation.insert(UncertainTuple(values={"tag": 1, "x": Gaussian(0.0, 1.0)}))
    relation.insert(UncertainTuple(values={"tag": "b", "x": Gaussian(1.0, 1.0)}))
    columnar = relation.to_columnar()
    assert columnar.certain["tag"].dtype == object
    assert [row["tag"] for row in columnar] == [1, "b"]


def test_quarantined_and_heterogeneous_columns_stay_object_backed():
    schema = Schema.of([Attribute("x", AttributeKind.UNCERTAIN)])
    relation = Relation(name="r", schema=schema)
    relation.insert(UncertainTuple(values={"x": Gaussian(0.0, 1.0)}))
    relation.insert(UncertainTuple(values={"x": None}))  # quarantined cell
    columnar = relation.to_columnar()
    assert isinstance(columnar.column("x"), list)
    assert columnar.row(1)["x"] is None

    hetero = Relation(name="h", schema=schema)
    hetero.insert(UncertainTuple(values={"x": Gaussian(0.0, 1.0)}))
    hetero.insert(UncertainTuple(values={"x": Uniform(0.0, 1.0)}))
    assert isinstance(hetero.to_columnar().column("x"), list)


def test_misaligned_column_blocks_raise_schema_error():
    columnar = ColumnarRelation.from_relation(_galaxy(3))
    with pytest.raises(SchemaError, match="rows"):
        ColumnarRelation(
            name="bad",
            schema=columnar.schema,
            certain=columnar.certain,
            uncertain={**columnar.uncertain, "redshift": columnar.uncertain["redshift"][:2]},
            existence=columnar.existence,
            annotations=columnar.annotations,
        )
    with pytest.raises(SchemaError, match="existence"):
        ColumnarRelation(
            name="bad",
            schema=columnar.schema,
            certain=columnar.certain,
            uncertain=columnar.uncertain,
            existence=columnar.existence[:2],
            annotations=columnar.annotations,
        )


# ---------------------------------------------------------------------------
# Hydration boundary and round trip
# ---------------------------------------------------------------------------

def test_row_hydrates_lazily_with_exact_types_and_parameters():
    relation = _galaxy()
    columnar = relation.to_columnar()
    for i, original in enumerate(relation):
        hydrated = columnar.row(i)
        assert type(hydrated["ra_offset"]) is Gaussian
        assert type(hydrated["redshift"]) is TruncatedGaussian
        assert hydrated["ra_offset"].mu == original["ra_offset"].mu
        assert hydrated["ra_offset"].sigma == original["ra_offset"].sigma
        assert hydrated["objID"] == original["objID"]
        assert type(hydrated["objID"]) is int
        assert hydrated.existence_probability == original.existence_probability
    # Each hydration builds a fresh object (nothing cached per cell) —
    # the store itself never holds per-tuple distribution objects for
    # packed columns.
    assert columnar.row(0)["ra_offset"] is not columnar.row(0)["ra_offset"]
    with pytest.raises(IndexError):
        columnar.row(len(relation))


def test_hydrated_column_preserves_tuple_order():
    relation = _galaxy()
    columnar = relation.to_columnar()
    hydrated = columnar.hydrated_column("dec_offset")
    assert [d.mu for d in hydrated] == [row["dec_offset"].mu for row in relation]
    with pytest.raises(SchemaError, match="no uncertain column"):
        columnar.column("nope")
    # Certain attributes are not uncertain columns.
    with pytest.raises(SchemaError):
        columnar.column("objID")


def test_round_trip_is_exact():
    relation = _galaxy(5)
    back = relation.to_columnar().to_relation()
    assert back.name == relation.name and back.schema == relation.schema
    for original, rebuilt in zip(relation, back):
        for attr in relation.schema:
            a, b = original[attr.name], rebuilt[attr.name]
            if attr.is_uncertain:
                assert type(a) is type(b)
                assert a.mu == b.mu and a.sigma == b.sigma
            else:
                assert a == b and type(a) is type(b)
        assert original.existence_probability == rebuilt.existence_probability
        assert original.annotations == rebuilt.annotations


# ---------------------------------------------------------------------------
# Query integration
# ---------------------------------------------------------------------------

def test_query_scans_columnar_relation_and_matches_tuple_store():
    """A Query over the columnar store is bit-identical to the same query
    over the tuple store."""
    results = {}
    for storage in ("tuple", "columnar"):
        udf = reference_function("F1", simulated_eval_time=1e-4)
        engine = UDFExecutionEngine(
            strategy="gp", requirement=REQUIREMENT, random_state=11, n_samples=96
        )
        relation = _galaxy(6, seed=5)
        source = relation if storage == "tuple" else relation.to_columnar()
        results[storage] = (
            Query(source)
            .apply_udf(
                udf,
                ["ra_offset", "dec_offset"],
                alias="f",
                plan=ExecutionPlan(batch_size=4),
            )
            .run(engine)
        )
    ref, got = results["tuple"], results["columnar"]
    assert len(ref.relation.tuples) == len(got.relation.tuples)
    for a, b in zip(ref.relation, got.relation):
        assert np.array_equal(a["f"].samples, b["f"].samples)
        assert a.annotations["f_error_bound"] == b.annotations["f_error_bound"]
        assert a.annotations["f_udf_calls"] == b.annotations["f_udf_calls"]
    assert [v.verdict for v in ref.verdicts] == [v.verdict for v in got.verdicts]
