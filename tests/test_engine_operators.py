"""Unit tests for the physical query operators and the execution engine."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.core.filtering import SelectionPredicate
from repro.distributions.continuous import Gaussian
from repro.distributions.empirical import EmpiricalDistribution
from repro.engine.executor import UDFExecutionEngine
from repro.engine.operators import ApplyUDF, CrossJoin, Project, Scan, SelectUDF, SelectWhere
from repro.engine.schema import Attribute, AttributeKind, Schema
from repro.engine.tuples import Relation, UncertainTuple
from repro.exceptions import QueryError
from repro.udf.base import UDF


@pytest.fixture
def small_relation() -> Relation:
    schema = Schema.of([Attribute("objID"), Attribute("x", AttributeKind.UNCERTAIN)])
    relation = Relation("R", schema)
    for i, mu in enumerate((0.0, 1.0, 2.0)):
        relation.insert(UncertainTuple(values={"objID": i, "x": Gaussian(mu, 0.1)}))
    return relation


@pytest.fixture
def square_udf() -> UDF:
    return UDF(lambda x: float(x[0]) ** 2, dimension=1, name="square",
               domain=(np.array([-5.0]), np.array([5.0])))


@pytest.fixture
def mc_engine() -> UDFExecutionEngine:
    return UDFExecutionEngine(
        strategy="mc", requirement=AccuracyRequirement(epsilon=0.2, delta=0.1), random_state=0
    )


@pytest.fixture
def gp_engine() -> UDFExecutionEngine:
    return UDFExecutionEngine(
        strategy="gp",
        requirement=AccuracyRequirement(epsilon=0.2, delta=0.1),
        random_state=0,
        initial_training_points=5,
        n_samples=300,
    )


class TestScanProjectSelect:
    def test_scan(self, small_relation):
        rows = list(Scan(small_relation))
        assert len(rows) == 3

    def test_project(self, small_relation):
        result = Project(Scan(small_relation), ["objID"]).execute()
        assert result.schema.names() == ["objID"]
        assert len(result) == 3

    def test_project_unknown_attribute(self, small_relation):
        with pytest.raises(QueryError):
            Project(Scan(small_relation), ["nope"])

    def test_project_requires_names(self, small_relation):
        with pytest.raises(QueryError):
            Project(Scan(small_relation), [])

    def test_select_where(self, small_relation):
        result = SelectWhere(Scan(small_relation), lambda t: t["objID"] >= 1).execute()
        assert len(result) == 2


class TestCrossJoin:
    def test_pairs_and_prefixes(self, small_relation):
        join = CrossJoin(Scan(small_relation), Scan(small_relation), "G1", "G2")
        rows = list(join)
        assert len(rows) == 9
        assert "G1.objID" in rows[0] and "G2.x" in rows[0]

    def test_pair_filter(self, small_relation):
        join = CrossJoin(
            Scan(small_relation),
            Scan(small_relation),
            "G1",
            "G2",
            pair_filter=lambda t: t["G1.objID"] < t["G2.objID"],
        )
        assert len(list(join)) == 3

    def test_identical_prefixes_rejected(self, small_relation):
        with pytest.raises(QueryError):
            CrossJoin(Scan(small_relation), Scan(small_relation), "G", "G")


class TestApplyUDF:
    def test_adds_output_distribution(self, small_relation, square_udf, mc_engine):
        operator = ApplyUDF(Scan(small_relation), square_udf, ["x"], "sq", mc_engine)
        result = operator.execute()
        assert "sq" in result.schema
        for row in result:
            assert isinstance(row["sq"], EmpiricalDistribution)
            assert f"sq_error_bound" in row.annotations

    def test_mean_of_derived_attribute(self, small_relation, square_udf, mc_engine):
        result = ApplyUDF(Scan(small_relation), square_udf, ["x"], "sq", mc_engine).execute()
        rows = list(result)
        # E[x^2] = mu^2 + sigma^2
        expected = [0.01, 1.01, 4.01]
        for row, target in zip(rows, expected):
            assert float(row["sq"].mean()[0]) == pytest.approx(target, abs=0.15)

    def test_gp_strategy_produces_error_bounds(self, small_relation, square_udf, gp_engine):
        result = ApplyUDF(Scan(small_relation), square_udf, ["x"], "sq", gp_engine).execute()
        for row in result:
            assert 0.0 <= row.annotations["sq_error_bound"] <= 1.0

    def test_validation(self, small_relation, square_udf, mc_engine):
        with pytest.raises(QueryError):
            ApplyUDF(Scan(small_relation), square_udf, ["nope"], "sq", mc_engine)
        with pytest.raises(QueryError):
            ApplyUDF(Scan(small_relation), square_udf, ["x"], "objID", mc_engine)
        with pytest.raises(QueryError):
            ApplyUDF(Scan(small_relation), square_udf, [], "sq", mc_engine)


class TestSelectUDF:
    def test_filters_out_of_range_tuples(self, small_relation, square_udf, mc_engine):
        # Keep only tuples whose square is likely in [3, 6]: only x ~ N(2, .1).
        predicate = SelectionPredicate(low=3.0, high=6.0, threshold=0.5)
        operator = SelectUDF(Scan(small_relation), square_udf, ["x"], "sq", predicate, mc_engine)
        result = operator.execute()
        kept_ids = [row["objID"] for row in result]
        assert kept_ids == [2]
        for row in result:
            assert row.existence_probability >= 0.5
            lo, hi = row["sq"].support
            assert lo >= 3.0 and hi <= 6.0

    def test_gp_strategy_filtering(self, small_relation, square_udf, gp_engine):
        predicate = SelectionPredicate(low=3.0, high=6.0, threshold=0.5)
        operator = SelectUDF(Scan(small_relation), square_udf, ["x"], "sq", predicate, gp_engine)
        kept_ids = [row["objID"] for row in operator]
        assert kept_ids == [2]

    def test_each_row_truncates_by_its_own_distribution(self, small_relation, square_udf,
                                                          mc_engine):
        """Rows of different sample counts in one block: each survivor's value
        and existence probability are its own distribution's truncation."""
        predicate = SelectionPredicate(low=-1.0, high=1.0, threshold=0.34)
        operator = SelectUDF(Scan(small_relation), square_udf, ["x"], "sq", predicate, mc_engine)
        rng = np.random.default_rng(4)
        kept = []
        for m, row_existence in ((3, 1.0), (7, 0.8), (12, 0.5), (1, 1.0)):
            distribution = EmpiricalDistribution(rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=m))
            output = SimpleNamespace(
                failed=False, dropped=False, distribution=distribution,
                error_bound=None, udf_calls=0, charged_time=0.0,
            )
            row = UncertainTuple(values={"objID": m, "x": Gaussian(0.0, 1.0)},
                                 existence_probability=row_existence)
            survivor = operator._filtered(row, output)
            expected = distribution.truncate(-1.0, 1.0)
            existence = row_existence * expected.existence_probability
            if expected.distribution is None or existence < 0.34:
                assert survivor is None
            else:
                kept.append(m)
                assert survivor.existence_probability == existence
                assert np.array_equal(survivor["sq"].samples, expected.distribution.samples)
        # The 3- and 12-sample rows land just under the threshold (1/3 each);
        # the single-sample row truncates away.
        assert kept == [7]


class TestExecutionEngine:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(QueryError):
            UDFExecutionEngine(strategy="exhaustive")

    def test_processors_are_reused_per_udf(self, square_udf, gp_engine):
        first = gp_engine.compute(square_udf, Gaussian(0.5, 0.1))
        second = gp_engine.compute(square_udf, Gaussian(0.6, 0.1))
        assert first.distribution is not None and second.distribution is not None
        # The same OLGAPRO instance persists, so the model keeps its training.
        assert len(gp_engine._processors) == 1

    def test_mc_compute_with_predicate_drop(self, square_udf, mc_engine):
        predicate = SelectionPredicate(low=100.0, high=200.0, threshold=0.1)
        output = mc_engine.compute_with_predicate(square_udf, Gaussian(0.0, 0.1), predicate)
        assert output.dropped
