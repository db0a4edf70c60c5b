"""Integration-style tests for the fluent query builder (queries Q1 and Q2)."""

from __future__ import annotations

import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.distributions.empirical import EmpiricalDistribution
from repro.engine.executor import UDFExecutionEngine
from repro.engine.query import Query
from repro.engine.sdss import generate_galaxy_relation
from repro.engine.tuples import Relation
from repro.exceptions import QueryError
from repro.udf.astro import comove_vol_udf, galage_udf, sky_distance_udf


@pytest.fixture(scope="module")
def galaxy():
    return generate_galaxy_relation(4, random_state=0)


@pytest.fixture(scope="module")
def engine():
    return UDFExecutionEngine(
        strategy="gp",
        requirement=AccuracyRequirement(epsilon=0.2, delta=0.1),
        random_state=0,
        initial_training_points=6,
        n_samples=300,
    )


class TestQ1:
    def test_galage_per_galaxy(self, galaxy, engine):
        result = (
            Query(galaxy)
            .apply_udf(galage_udf(), ["redshift"], alias="galage")
            .project(["objID", "galage"])
            .run(engine)
        )
        assert len(result) == len(galaxy)
        assert result.schema.names() == ["objID", "galage"]
        for row in result:
            age = row["galage"]
            assert isinstance(age, EmpiricalDistribution)
            # Galaxy ages must be between ~3.5 and ~13.5 Gyr in this redshift range.
            assert 3.0 < float(age.mean()[0]) < 14.0

    def test_error_bound_annotation_present(self, galaxy, engine):
        result = Query(galaxy).apply_udf(galage_udf(), ["redshift"], alias="galage").run(engine)
        for row in result:
            assert row.annotations["galage_error_bound"] <= 0.2 + 1e-9


class TestQ2:
    def test_join_with_udf_predicate(self, galaxy, engine):
        result = (
            Query(galaxy)
            .alias("G1")
            .cross_join(galaxy, alias="G2", pair_filter=lambda t: t["G1.objID"] < t["G2.objID"])
            .where_udf(
                sky_distance_udf(),
                ["G1.ra_offset", "G1.dec_offset", "G2.ra_offset", "G2.dec_offset"],
                alias="dist",
                low=0.0,
                high=90.0,
                threshold=0.1,
            )
            .apply_udf(comove_vol_udf(), ["G1.redshift", "G2.redshift"], alias="covol")
            .project(["G1.objID", "G2.objID", "dist", "covol"])
            .run(engine)
        )
        # The predicate [0, 90] degrees is permissive, so all pairs survive.
        assert len(result) == 6
        for row in result:
            assert isinstance(row["dist"], EmpiricalDistribution)
            assert isinstance(row["covol"], EmpiricalDistribution)
            assert float(row["covol"].mean()[0]) >= 0
            assert 0.0 < row.existence_probability <= 1.0

    def test_selective_predicate_drops_pairs(self, galaxy, engine):
        result = (
            Query(galaxy)
            .alias("G1")
            .cross_join(galaxy, alias="G2", pair_filter=lambda t: t["G1.objID"] < t["G2.objID"])
            .where_udf(
                sky_distance_udf(),
                ["G1.ra_offset", "G1.dec_offset", "G2.ra_offset", "G2.dec_offset"],
                alias="dist",
                low=1000.0,
                high=2000.0,  # impossible angular separation
                threshold=0.1,
            )
            .run(engine)
        )
        assert len(result) == 0


class TestBuilderValidation:
    def test_alias_must_be_non_empty(self, galaxy):
        with pytest.raises(QueryError):
            Query(galaxy).alias("")

    def test_join_aliases_must_differ(self, galaxy):
        with pytest.raises(QueryError):
            Query(galaxy).alias("G").cross_join(galaxy, alias="G")

    def test_where_on_certain_attributes(self, galaxy, engine):
        result = Query(galaxy).where(lambda t: t["objID"] % 2 == 0).run(engine)
        assert all(row["objID"] % 2 == 0 for row in result)

    def test_plan_without_execution(self, galaxy, engine):
        plan = Query(galaxy).project(["objID"]).plan(engine)
        assert plan.schema().names() == ["objID"]

    @pytest.mark.parametrize("empty", [False, True], ids=["rows", "empty-relation"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda q: q.apply_udf("galage", [], alias="g"),
            lambda q: q.where_udf("galage", [], alias="g", low=0.0, high=1.0),
        ],
        ids=["apply_udf", "where_udf"],
    )
    def test_udf_call_without_arguments_fails_at_plan(self, galaxy, engine, build, empty):
        relation = Relation(name="empty", schema=galaxy.schema) if empty else galaxy
        with pytest.raises(QueryError, match="at least one argument"):
            build(Query(relation)).plan(engine)
