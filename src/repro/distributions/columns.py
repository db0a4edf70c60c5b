"""Succinct columnar encoding of uncertain-attribute columns.

The tuple store materialises one :class:`~repro.distributions.base.Distribution`
object per uncertain cell.  The columnar store instead keeps, per column, a
*family tag* plus a dense ``(n, k)`` parameter block — e.g. every Gaussian
cell contributes one ``(mu, sigma)`` row — and hydrates distribution objects
lazily, only at the UDF boundary (exactly the U-relations idea of separating
the succinct representation from per-tuple objects).

Two operations make the encoding useful on the hot path:

* :func:`attempt_encode` — recognise a homogeneous column of supported
  univariate families and pack it; heterogeneous / joint / unsupported
  columns return ``None`` and the caller keeps per-tuple objects.
* :func:`sample_stacked` — draw the Monte-Carlo sample block for the whole
  column through *one* broadcast call on the shared
  ``numpy.random.Generator``.  NumPy fills broadcast outputs in C element
  order, so the draw consumes the random stream exactly as the per-tuple
  loop ``[dist.sample(m, rng) for dist in column]`` does — the sliced rows
  are bit-identical, which is what lets every executor layer keep the
  repo's determinism contract.  :func:`stacking_supported` verifies that
  fill-order property once per process.
* :func:`sample_chunk` — the one chunk draw every executor uses: the
  stacked draw when the chunk encodes and the platform keeps the fill-order
  identity, per-tuple draws in tuple order otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.continuous import Exponential, Gamma, Gaussian, Uniform
from repro.distributions.multivariate import PointMass
from repro.exceptions import DistributionError

#: family tag -> (distribution class, parameter attribute names in pack order)
COLUMN_FAMILIES: dict[str, tuple[type, tuple[str, ...]]] = {
    "gaussian": (Gaussian, ("mu", "sigma")),
    "uniform": (Uniform, ("low", "high")),
    "exponential": (Exponential, ("rate", "shift")),
    "gamma": (Gamma, ("shape", "scale", "shift")),
    "point": (PointMass, ("value",)),
}

_CLASS_TO_FAMILY = {cls: tag for tag, (cls, _) in COLUMN_FAMILIES.items()}


@dataclass(frozen=True)
class UncertainColumn:
    """One uncertain column: a family tag plus an ``(n, k)`` parameter block."""

    #: Key into :data:`COLUMN_FAMILIES`.
    family: str
    #: ``(n, k)`` float parameter rows, one per tuple, in the family's order.
    params: np.ndarray

    def __post_init__(self) -> None:
        if self.family not in COLUMN_FAMILIES:
            raise DistributionError(f"unknown column family {self.family!r}")
        params = np.asarray(self.params, dtype=float)
        k = len(COLUMN_FAMILIES[self.family][1])
        if params.ndim != 2 or params.shape[1] != k:
            raise DistributionError(
                f"family {self.family!r} needs (n, {k}) params, got {params.shape}"
            )
        object.__setattr__(self, "params", params)

    def __len__(self) -> int:
        return int(self.params.shape[0])

    # -- hydration (the UDF boundary) ---------------------------------------------
    def hydrate(self, i: int) -> Distribution:
        """Materialise the distribution object for row ``i``.

        The constructors re-validate and re-``float()`` the parameters, so a
        hydrated object is indistinguishable from the one the column was
        encoded from.
        """
        cls, _ = COLUMN_FAMILIES[self.family]
        return cls(*self.params[i])

    def hydrate_all(self) -> list[Distribution]:
        """Materialise every row (the tuple-store round trip)."""
        return [self.hydrate(i) for i in range(len(self))]


def attempt_encode(distributions: Sequence[Distribution]) -> Optional[UncertainColumn]:
    """Pack a homogeneous column of supported distributions, or ``None``.

    Supported are the scalar continuous families of
    :mod:`repro.distributions.continuous` plus 1-D point masses.  Mixed
    families, joint/multivariate inputs and anything else (including
    ``None`` placeholders for quarantined cells) yield ``None`` — the
    caller's cue to stay on the per-tuple representation.  Subclasses are
    rejected too: hydration must reconstruct the exact type.
    """
    distributions = list(distributions)
    if not distributions:
        return None
    family = _CLASS_TO_FAMILY.get(type(distributions[0]))
    if family is None:
        return None
    if any(type(dist) is not type(distributions[0]) for dist in distributions[1:]):
        return None
    if family == "point":
        if any(dist.value.size != 1 for dist in distributions):
            return None
        params = np.array([[float(dist.value[0])] for dist in distributions])
        return UncertainColumn(family="point", params=params)
    _, names = COLUMN_FAMILIES[family]
    params = np.array(
        [[getattr(dist, name) for name in names] for dist in distributions]
    )
    return UncertainColumn(family=family, params=params)


def sample_stacked(
    column: UncertainColumn, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Column-wide Monte-Carlo draw, bit-identical to the per-row loop.

    Returns an ``(n, size, 1)`` block whose row ``i`` equals
    ``column.hydrate(i).sample(size, random_state=rng)`` under the same
    generator state; the whole column consumes one broadcast draw.  The
    caller is responsible for checking :func:`stacking_supported` first
    (:func:`sample_chunk` does).
    """
    if size < 1:
        raise DistributionError(f"sample size must be positive, got {size}")
    p = column.params
    n = p.shape[0]
    if n == 0:
        return np.empty((0, size, 1))
    if column.family == "gaussian":
        draws = rng.normal(np.repeat(p[:, 0], size), np.repeat(p[:, 1], size))
        return draws.reshape(n, size, 1)
    if column.family == "uniform":
        draws = rng.uniform(np.repeat(p[:, 0], size), np.repeat(p[:, 1], size))
        return draws.reshape(n, size, 1)
    if column.family == "exponential":
        draws = rng.exponential(np.repeat(1.0 / p[:, 0], size)).reshape(n, size, 1)
        return p[:, 1].reshape(n, 1, 1) + draws
    if column.family == "gamma":
        draws = rng.gamma(
            np.repeat(p[:, 0], size), np.repeat(p[:, 1], size)
        ).reshape(n, size, 1)
        return p[:, 2].reshape(n, 1, 1) + draws
    # Point masses consume no randomness, matching PointMass.sample.
    return np.repeat(p[:, 0], size).reshape(n, size, 1)


def sample_chunk(
    distributions: Sequence[Distribution], size: int, rng: np.random.Generator
) -> tuple[list[np.ndarray], list[float]]:
    """A chunk's Monte-Carlo draws in tuple order, and each tuple's draw seconds.

    One stacked generator call when the chunk encodes as a homogeneous
    column — bit-identical to the per-tuple draws, so the shared stream
    advances the same way (the fill-order identity, probed by
    :func:`stacking_supported`) — and ``dist.sample`` per tuple for inputs
    that do not encode (joint / mixed-family streams).
    """
    column = attempt_encode(distributions) if stacking_supported() else None
    if column is not None:
        started = time.perf_counter()
        block = sample_stacked(column, size, rng)
        share = (time.perf_counter() - started) / len(block)
        return list(block), [share] * len(block)
    sample_sets, seconds = [], []
    for dist in distributions:
        started = time.perf_counter()
        sample_sets.append(dist.sample(size, random_state=rng))
        seconds.append(time.perf_counter() - started)
    return sample_sets, seconds


_STACKING_SUPPORTED: Optional[bool] = None


def _probe_stacking() -> bool:
    """One-time platform probe of the fill-order identity the chunk draw uses.

    Broadcast RNG draws fill in C element order, so a column-wide draw
    sliced per row equals sequential per-row draws for every supported
    family — compared *bit-for-bit* (``array_equal`` on float outputs).
    """
    seed = np.random.SeedSequence(20130817)
    mus = np.array([0.5, -1.25, 3.0])
    sigmas = np.array([1.0, 0.25, 2.5])
    m = 7
    for draw in (
        lambda r, loc, scale, size: r.normal(loc, scale, size=size),
        lambda r, loc, scale, size: r.uniform(loc, loc + scale, size=size),
        lambda r, loc, scale, size: r.exponential(scale, size=size),
        lambda r, loc, scale, size: r.gamma(1.0 + np.abs(loc), scale, size=size),
    ):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        stacked = draw(rng_a, np.repeat(mus, m), np.repeat(sigmas, m), None)
        rows = [draw(rng_b, mu, sg, (m,)) for mu, sg in zip(mus, sigmas)]
        if not np.array_equal(stacked.reshape(len(mus), m), np.vstack(rows)):
            return False
    return True


def stacking_supported() -> bool:
    """Whether this platform's RNG keeps the stacked draw's fill order exact.

    Probed once per process; when ``False`` chunk draws go per tuple (the
    determinism gates then pass trivially).
    """
    global _STACKING_SUPPORTED
    if _STACKING_SUPPORTED is None:
        _STACKING_SUPPORTED = bool(_probe_stacking())
    return _STACKING_SUPPORTED
