"""UDF catalog: the engine's one UDF store, with the profiles the
auto-planner reads.

Query text such as ``GalAge(G.redshift)`` refers to UDFs by name; the
engine resolves those names through a :class:`UDFCatalog` (lookups are
case-insensitive).  The paper's cost model is *UDF calls* — every
optimisation in this repo exists to spend fewer, better-overlapped calls —
so each registered UDF also carries a frozen :class:`UDFProfile`
describing what the planner needs to know: declared per-call cost and the
latency class it implies, vectorised-batch capability, async capability,
determinism, input dimensionality and tags.  Profiles are derived
automatically from the existing :class:`~repro.udf.base.UDF` /
:class:`~repro.udf.base.AsyncUDF` attributes, with explicit overrides at
registration for what the wrapper cannot see (a declared service latency,
a non-deterministic black box).

:meth:`ExecutionPlan.auto <repro.engine.plan.ExecutionPlan.auto>` consumes
these profiles to choose ``batch_size`` / ``transport`` /
``async_inflight`` / ``pipeline_lookahead`` instead of requiring
hand-tuning; ``plan="auto"`` on the
operators, the query builder and :class:`~repro.engine.session.Session`
routes through the same resolution.  A *neutral* profile (negligible
per-call cost) must resolve to the serial batched path — the bit-identity
anchor every other resolution is gated against.  :func:`default_catalog`
holds the astrophysics case-study UDFs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Iterator, Optional, Tuple

from repro.exceptions import UDFError
from repro.udf.base import UDF, AsyncUDF

#: Latency classes a declared per-call cost maps to, in increasing order.
LATENCY_NEGLIGIBLE = "negligible"
LATENCY_MODERATE = "moderate"
LATENCY_SLOW = "slow"
LATENCY_CLASSES = (LATENCY_NEGLIGIBLE, LATENCY_MODERATE, LATENCY_SLOW)

#: Per-call seconds at which a UDF stops being "negligible": below this the
#: call is cheaper than the overlap machinery it would ride, so the planner
#: keeps the serial batched path.
MODERATE_THRESHOLD_SECONDS = 1e-3
#: Per-call seconds at which a UDF is "slow": every call is worth
#: overlapping *and* pipelining across tuples (an RPC-class latency).
SLOW_THRESHOLD_SECONDS = 1e-2


def canonical_udf_name(name: str) -> str:
    """The catalog's canonical spelling of a UDF name.

    One normalisation shared by catalog keys, profile names and the
    serving layer's circuit-breaker keys, so "GalAge", "galage" and
    "GALAGE" always denote the same breaker state and catalog entry.
    """
    return str(name).lower()


def latency_class_for(per_call_seconds: float) -> str:
    """Map a declared per-call cost to its latency class."""
    if per_call_seconds >= SLOW_THRESHOLD_SECONDS:
        return LATENCY_SLOW
    if per_call_seconds >= MODERATE_THRESHOLD_SECONDS:
        return LATENCY_MODERATE
    return LATENCY_NEGLIGIBLE


def _declared_per_call_seconds(udf: UDF) -> float:
    """Best-effort per-call cost derived from the UDF's own attributes.

    Sums the accounting cost (``simulated_eval_time``) with any *real*
    per-call latency the wrapped black box declares: the synthetic
    :class:`~repro.udf.synthetic.RealCostFunction` exposes ``eval_time``
    and the async :class:`~repro.udf.synthetic.SimulatedServiceFunction`
    exposes ``latency``.  Unknown black boxes contribute zero — their
    cost must be declared as a registration override.
    """
    seconds = float(getattr(udf, "simulated_eval_time", 0.0) or 0.0)
    inner = getattr(udf, "_coro_func", None) or getattr(udf, "_func", None)
    for attribute in ("eval_time", "latency"):
        declared = getattr(inner, attribute, None)
        if declared is not None:
            try:
                seconds += float(declared)
            except (TypeError, ValueError):
                pass
    return seconds


@dataclass(frozen=True)
class UDFProfile:
    """Declared planner-facing metadata of one registered UDF.

    Frozen: a profile is a *declaration*, shared freely between the
    catalog, the planner and the serving layer; changing one means
    registering a new profile.

    Parameters
    ----------
    name:
        Canonical (lower-case) catalog name of the UDF.
    dimension:
        Input dimensionality of the black box.
    per_call_seconds:
        Declared cost of one evaluation — wall-clock for a real black box,
        accounting cost for a simulated one.  Drives :attr:`latency_class`.
    vectorized:
        Whether the black box accepts whole ``(n, d)`` batches.
    async_capable:
        Whether the UDF is natively async (an
        :class:`~repro.udf.base.AsyncUDF`), i.e. may ride the asyncio
        transport.
    deterministic:
        Whether repeated evaluation at one point returns the same value.
    tags:
        Free-form labels (``"astro"``, ``"synthetic"``, ...).
    """

    name: str
    dimension: int
    per_call_seconds: float = 0.0
    vectorized: bool = False
    async_capable: bool = False
    deterministic: bool = True
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        """Validate the declaration (raises :class:`UDFError`)."""
        object.__setattr__(self, "name", canonical_udf_name(self.name))
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.name:
            raise UDFError("a UDF profile needs a non-empty name")
        if int(self.dimension) < 1:
            raise UDFError(
                f"profile {self.name!r}: dimension must be positive, got "
                f"{self.dimension}"
            )
        if not self.per_call_seconds >= 0.0:
            raise UDFError(
                f"profile {self.name!r}: per_call_seconds must be "
                f"non-negative, got {self.per_call_seconds}"
            )

    @property
    def latency_class(self) -> str:
        """``"negligible"`` / ``"moderate"`` / ``"slow"`` from the cost."""
        return latency_class_for(self.per_call_seconds)

    @property
    def is_neutral(self) -> bool:
        """Whether the auto-planner must keep the serial batched path.

        Neutral means there is nothing to overlap (negligible per-call
        cost) — the profile of every plain in-process numpy UDF.  This is the
        bit-identity anchor: ``plan="auto"`` for a neutral profile is the
        serial batched plan, gated identical to every other resolution.
        """
        return self.latency_class == LATENCY_NEGLIGIBLE

    @classmethod
    def from_udf(cls, udf: UDF, **overrides: Any) -> "UDFProfile":
        """Derive a profile from a UDF's own attributes, plus overrides.

        Derivation reads ``name`` / ``dimension`` / ``vectorized`` /
        ``simulated_eval_time`` (and the synthetic wrappers' declared
        real latencies) straight off the wrapper; ``async_capable`` is the
        :class:`~repro.udf.base.AsyncUDF` type check.  ``overrides`` may
        replace any field — unknown keys raise :class:`UDFError` rather
        than being dropped.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise UDFError(
                f"unknown profile field(s) for {udf.name!r}: {sorted(unknown)}; "
                f"choose from {sorted(known)}"
            )
        derived: dict[str, Any] = dict(
            name=udf.name,
            dimension=udf.dimension,
            per_call_seconds=_declared_per_call_seconds(udf),
            vectorized=bool(getattr(udf, "vectorized", False)),
            async_capable=isinstance(udf, AsyncUDF),
        )
        derived.update(overrides)
        return cls(**derived)

    def with_overrides(self, **overrides: Any) -> "UDFProfile":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """Compact one-line summary used by reprs and diagnostics."""
        parts = [
            f"{self.name}: {self.latency_class}",
            f"{self.per_call_seconds:g}s/call",
            f"d={self.dimension}",
        ]
        if self.vectorized:
            parts.append("vectorized")
        if self.async_capable:
            parts.append("async")
        if not self.deterministic:
            parts.append("non-deterministic")
        return ", ".join(parts)


class UDFCatalog:
    """Name -> (:class:`UDF`, :class:`UDFProfile`) store, case-insensitive.

    Every entry carries a :class:`UDFProfile`, derived automatically at
    registration (:meth:`UDFProfile.from_udf`) unless an explicit profile
    or per-field overrides are supplied.  The profile's ``name`` is always
    the canonical catalog key, so planner decisions, catalog lookups and
    the serving layer's circuit-breaker keys all agree on one spelling.
    """

    def __init__(self) -> None:
        """Create an empty catalog."""
        self._udfs: dict[str, UDF] = {}
        self._profiles: dict[str, UDFProfile] = {}

    def register(
        self,
        udf: UDF,
        name: str | None = None,
        replace: bool = False,
        profile: UDFProfile | None = None,
        **overrides: Any,
    ) -> UDFProfile:
        """Register ``udf`` under ``name`` (default ``udf.name``) with a
        profile; returns the stored profile.

        ``profile`` supplies a complete declaration; the keyword
        ``overrides`` patch the automatically derived one.  Passing both
        is rejected — two sources of truth for the same declaration cannot
        be reconciled silently.  Nothing is stored unless the whole
        registration is valid.
        """
        if profile is not None and overrides:
            raise UDFError(
                "pass either a complete profile= or per-field overrides "
                f"(got profile= and {sorted(overrides)})"
            )
        key = canonical_udf_name(name or udf.name)
        if not key:
            raise UDFError("UDF name must be non-empty")
        if key in self._udfs and not replace:
            raise UDFError(f"UDF {key!r} is already registered")
        if profile is None:
            profile = UDFProfile.from_udf(udf, **overrides)
        if profile.name != key:
            profile = profile.with_overrides(name=key)
        self._udfs[key] = udf
        self._profiles[key] = profile
        return profile

    def get(self, name: str) -> UDF:
        """Look up a UDF by name; raises :class:`UDFError` if unknown."""
        key = canonical_udf_name(name)
        if key not in self._udfs:
            raise UDFError(
                f"unknown UDF {name!r}; registered: {sorted(self._udfs)}"
            )
        return self._udfs[key]

    def __contains__(self, name: str) -> bool:
        return canonical_udf_name(name) in self._udfs

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._udfs))

    def __len__(self) -> int:
        return len(self._udfs)

    def profile(self, name: str) -> UDFProfile:
        """The stored profile of a registered UDF (:class:`UDFError` if unknown)."""
        key = canonical_udf_name(name)
        if key not in self._profiles:
            raise UDFError(
                f"no profile for UDF {name!r}; registered: "
                f"{sorted(self._profiles)}"
            )
        return self._profiles[key]

    def profile_for(self, udf: UDF) -> UDFProfile:
        """The profile the planner should use for ``udf``.

        The stored profile when this exact object is registered under its
        name (declared overrides win over derivation); otherwise a profile
        derived on the spot — an unregistered UDF still auto-plans, it
        just cannot carry declarations the wrapper does not expose.
        """
        key = canonical_udf_name(udf.name)
        if key in self._profiles and self._udfs.get(key) is udf:
            return self._profiles[key]
        return UDFProfile.from_udf(udf)

    def profiles(self) -> Tuple[UDFProfile, ...]:
        """Every stored profile, in name order."""
        return tuple(self._profiles[key] for key in sorted(self._profiles))


_DEFAULT_CATALOG: Optional[UDFCatalog] = None


def _build_default_catalog() -> UDFCatalog:
    """Construct the astrophysics case-study catalog from scratch."""
    from repro.udf.astro import case_study_udfs, sky_distance_udf

    catalog = UDFCatalog()
    for udf in case_study_udfs().values():
        catalog.register(udf, tags=("astro", "case-study"))
    catalog.register(sky_distance_udf(), tags=("astro", "case-study"))
    return catalog


def default_catalog(fresh: bool = False) -> UDFCatalog:
    """The memoized catalog of the astrophysics case-study UDFs.

    Instantiating the case-study UDFs builds cosmology interpolation
    tables, so the default catalog is constructed once and shared —
    repeated calls return the same object (and the same UDF instances,
    the idempotent-registration contract the regression tests pin).
    ``fresh=True`` is the escape hatch: a brand-new, independent catalog
    whose mutations never leak into the shared one.
    """
    global _DEFAULT_CATALOG
    if fresh:
        return _build_default_catalog()
    if _DEFAULT_CATALOG is None:
        _DEFAULT_CATALOG = _build_default_catalog()
    return _DEFAULT_CATALOG


__all__ = [
    "LATENCY_CLASSES",
    "LATENCY_NEGLIGIBLE",
    "LATENCY_MODERATE",
    "LATENCY_SLOW",
    "MODERATE_THRESHOLD_SECONDS",
    "SLOW_THRESHOLD_SECONDS",
    "UDFCatalog",
    "UDFProfile",
    "canonical_udf_name",
    "default_catalog",
    "latency_class_for",
]
