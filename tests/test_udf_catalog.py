"""The UDF catalog: profile derivation, declarations, and memoization.

Contracts under test (see :mod:`repro.udf.catalog`):

* a :class:`UDFProfile` derives its fields from the UDF's own attributes
  (declared latency, vectorisation, async capability, dimension), with
  registration-time overrides winning and unknown override keys rejected;
* profile validation is typed (:class:`~repro.exceptions.UDFError`) —
  bad dimensions, negative costs;
* the latency classes split at the documented thresholds and a *neutral*
  profile (negligible cost) is the serial-path anchor;
* :class:`UDFCatalog` is the one UDF store; its entries always carry a
  profile keyed by the canonical (lower-case) name, and a rejected
  registration stores nothing;
* ``default_catalog()`` is memoized — repeated
  calls return the same object with the same UDF instances (the
  idempotent-registration regression) — and ``fresh=True`` escapes the
  cache with an independent instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import UDFError
from repro.udf.base import UDF
from repro.udf.catalog import (
    LATENCY_MODERATE,
    LATENCY_NEGLIGIBLE,
    LATENCY_SLOW,
    MODERATE_THRESHOLD_SECONDS,
    SLOW_THRESHOLD_SECONDS,
    UDFCatalog,
    UDFProfile,
    canonical_udf_name,
    default_catalog,
    latency_class_for,
)
from repro.udf.synthetic import async_service_udf, reference_function


class TestLatencyClasses:
    def test_thresholds(self):
        assert latency_class_for(0.0) == LATENCY_NEGLIGIBLE
        assert latency_class_for(MODERATE_THRESHOLD_SECONDS / 2) == LATENCY_NEGLIGIBLE
        assert latency_class_for(MODERATE_THRESHOLD_SECONDS) == LATENCY_MODERATE
        assert latency_class_for(SLOW_THRESHOLD_SECONDS / 2) == LATENCY_MODERATE
        assert latency_class_for(SLOW_THRESHOLD_SECONDS) == LATENCY_SLOW
        assert latency_class_for(10.0) == LATENCY_SLOW

    def test_canonical_name_lowercases(self):
        assert canonical_udf_name("GalAge") == "galage"
        assert canonical_udf_name("galage") == "galage"


class TestProfileDerivation:
    def test_blocking_udf_derives_cost_from_declared_eval_time(self):
        udf = reference_function("F2", real_eval_time=0.02)
        profile = UDFProfile.from_udf(udf)
        assert profile.name == "f2"
        assert profile.dimension == udf.dimension
        assert profile.per_call_seconds == pytest.approx(0.02)
        assert profile.latency_class == LATENCY_SLOW
        assert not profile.async_capable
        assert not profile.is_neutral

    def test_async_udf_derives_latency_and_async_capability(self):
        udf = async_service_udf("F2", latency=0.005)
        profile = UDFProfile.from_udf(udf)
        assert profile.async_capable
        assert profile.per_call_seconds == pytest.approx(0.005)
        assert profile.latency_class == LATENCY_MODERATE

    def test_simulated_eval_time_adds_to_the_declared_cost(self):
        udf = reference_function("F2").with_simulated_eval_time(0.5)
        profile = UDFProfile.from_udf(udf)
        assert profile.per_call_seconds >= 0.5

    def test_plain_numpy_udf_is_neutral(self):
        udf = UDF(lambda x: float(np.sum(x)), dimension=2, name="cheap")
        profile = UDFProfile.from_udf(udf)
        assert profile.is_neutral
        assert profile.latency_class == LATENCY_NEGLIGIBLE

    def test_overrides_win_over_derivation(self):
        udf = reference_function("F2")
        profile = UDFProfile.from_udf(
            udf, per_call_seconds=0.05, deterministic=False, tags=("svc",)
        )
        assert profile.per_call_seconds == pytest.approx(0.05)
        assert not profile.deterministic
        assert profile.tags == ("svc",)

    def test_unknown_override_key_rejected(self):
        with pytest.raises(UDFError, match="unknown profile field"):
            UDFProfile.from_udf(reference_function("F2"), latencyy=0.1)

    def test_with_overrides_revalidates(self):
        profile = UDFProfile.from_udf(reference_function("F2"))
        slow = profile.with_overrides(per_call_seconds=1.0)
        assert slow.latency_class == LATENCY_SLOW
        with pytest.raises(UDFError):
            profile.with_overrides(per_call_seconds=-1.0)

    def test_describe_mentions_the_load_bearing_fields(self):
        profile = UDFProfile(
            name="Svc", dimension=2, per_call_seconds=0.02,
            async_capable=True, deterministic=False,
        )
        text = profile.describe()
        assert "svc" in text and "slow" in text
        assert "async" in text and "non-deterministic" in text


class TestProfileValidation:
    def test_bad_dimension(self):
        with pytest.raises(UDFError, match="dimension"):
            UDFProfile(name="f", dimension=0)

    def test_negative_cost(self):
        with pytest.raises(UDFError, match="non-negative"):
            UDFProfile(name="f", dimension=1, per_call_seconds=-0.1)

    def test_empty_name(self):
        with pytest.raises(UDFError, match="name"):
            UDFProfile(name="", dimension=1)


class TestCatalog:
    def test_register_derives_and_stores_a_profile(self):
        catalog = UDFCatalog()
        udf = reference_function("F2", real_eval_time=0.02)
        stored = catalog.register(udf)
        assert catalog.profile("F2") is stored
        assert stored.name == "f2"
        assert stored.latency_class == LATENCY_SLOW
        assert catalog.get("f2") is udf

    def test_register_with_overrides(self):
        catalog = UDFCatalog()
        stored = catalog.register(reference_function("F2"), deterministic=False)
        assert not stored.deterministic
        # The carrier is the planner's choice, not a profile field.
        with pytest.raises(UDFError, match="unknown profile field"):
            catalog.register(reference_function("F3"), backend="threads")
        assert list(catalog) == ["f2"]

    def test_rejected_registration_stores_nothing(self):
        catalog = UDFCatalog()
        with pytest.raises(UDFError, match="non-negative"):
            catalog.register(reference_function("F1"), per_call_seconds=-1.0)
        assert "F1" not in catalog and len(catalog) == 0
        udf = reference_function("F1")
        stored = catalog.register(udf)
        assert catalog.get("f1") is udf and catalog.profile("F1") is stored

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"dimension": 0}, "dimension"),
            ({"backend": "threads"}, "unknown profile field"),
            ({"profile": UDFProfile(name="f1", dimension=2), "deterministic": False},
             "profile="),
        ],
        ids=["bad-dimension", "unknown-field", "profile-and-overrides"],
    )
    def test_every_rejected_registration_stores_nothing(self, kwargs, match):
        catalog = UDFCatalog()
        with pytest.raises(UDFError, match=match):
            catalog.register(reference_function("F1"), **kwargs)
        assert len(catalog) == 0 and catalog.profiles() == ()
        catalog.register(reference_function("F1"))
        assert list(catalog) == ["f1"]

    def test_register_with_full_profile_forces_the_catalog_key(self):
        catalog = UDFCatalog()
        profile = UDFProfile(name="other", dimension=2, per_call_seconds=0.02)
        stored = catalog.register(reference_function("F2"), profile=profile)
        assert stored.name == "f2"
        assert stored.per_call_seconds == pytest.approx(0.02)

    def test_profile_plus_overrides_rejected(self):
        catalog = UDFCatalog()
        profile = UDFProfile(name="f2", dimension=2)
        with pytest.raises(UDFError, match="profile="):
            catalog.register(reference_function("F2"), profile=profile,
                             deterministic=False)

    def test_profile_unknown_name_raises(self):
        with pytest.raises(UDFError, match="no profile"):
            UDFCatalog().profile("nothing")

    def test_profile_for_prefers_the_stored_declaration(self):
        catalog = UDFCatalog()
        udf = reference_function("F2")
        catalog.register(udf, per_call_seconds=0.05)
        assert catalog.profile_for(udf).per_call_seconds == pytest.approx(0.05)
        # A *different* object under the same name falls back to derivation:
        # its declaration, if any, lives with its own registration.
        stranger = reference_function("F2")
        assert catalog.profile_for(stranger).per_call_seconds == pytest.approx(0.0)

    def test_profiles_listing_is_name_ordered(self):
        catalog = UDFCatalog()
        catalog.register(reference_function("F3"))
        catalog.register(reference_function("F1"))
        assert [p.name for p in catalog.profiles()] == ["f1", "f3"]


class TestDefaultMemoization:
    def test_default_catalog_is_memoized_with_profiles(self):
        first = default_catalog()
        assert default_catalog() is first
        for name in ("galage", "comovevol", "angdist", "distance"):
            assert name in first
            profile = first.profile(name)
            assert profile.name == name
            assert "astro" in profile.tags

    def test_default_catalog_fresh_is_independent(self):
        shared = default_catalog()
        fresh = default_catalog(fresh=True)
        assert fresh is not shared
        fresh.register(reference_function("F4"), replace=True)
        assert "f4" not in shared
