"""Unit tests for the catalog's name store, which the query engine resolves
UDF names through."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import UDFError
from repro.udf.base import UDF
from repro.udf.catalog import UDFCatalog, default_catalog


class TestRegistry:
    def make_udf(self, name="f"):
        return UDF(lambda x: 1.0, dimension=1, name=name)

    def test_register_and_get(self):
        registry = UDFCatalog()
        udf = self.make_udf("MyFunc")
        registry.register(udf)
        assert registry.get("myfunc") is udf
        assert registry.get("MYFUNC") is udf

    def test_register_under_alternate_name(self):
        registry = UDFCatalog()
        udf = self.make_udf()
        registry.register(udf, name="alias")
        assert registry.get("alias") is udf

    def test_duplicate_rejected_unless_replace(self):
        registry = UDFCatalog()
        registry.register(self.make_udf("g"))
        with pytest.raises(UDFError):
            registry.register(self.make_udf("g"))
        registry.register(self.make_udf("g"), replace=True)

    def test_unknown_name_raises(self):
        registry = UDFCatalog()
        with pytest.raises(UDFError):
            registry.get("nothing")

    def test_contains_len_iter(self):
        registry = UDFCatalog()
        registry.register(self.make_udf("a"))
        registry.register(self.make_udf("b"))
        assert "a" in registry and "B" in registry and "c" not in registry
        assert len(registry) == 2
        assert list(registry) == ["a", "b"]

    def test_empty_name_rejected(self):
        registry = UDFCatalog()
        with pytest.raises(UDFError):
            registry.register(UDF(lambda x: 1.0, dimension=1, name=""))


class TestDefaultRegistry:
    def test_contains_case_study_udfs(self):
        registry = default_catalog()
        for name in ("GalAge", "ComoveVol", "AngDist", "Distance"):
            assert name in registry

    def test_returned_udfs_are_callable(self):
        registry = default_catalog()
        assert registry.get("galage")(np.array([0.3])) > 0
