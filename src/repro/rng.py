"""Deterministic random-number-generator plumbing.

Every stochastic component of the library accepts either a seed, an existing
:class:`numpy.random.Generator`, or ``None``.  This module centralises the
conversion so behaviour is reproducible when a seed is supplied and properly
independent when child generators are spawned.

Determinism contract for sharded (parallel) execution
-----------------------------------------------------
The parallel execution layer assigns every shard of a relation its own
random stream via :func:`spawn_keyed`.  The stream for shard ``i`` is a
pure function of ``(seed, i)`` — it does not depend on which worker process
executes the shard, how many workers the pool has, or in what order shards
complete.  Consequently:

* results are bitwise reproducible for a fixed ``(seed, workers,
  batch_size)`` configuration;
* under the ``"discard"`` merge policy (every shard computes against the
  same model snapshot) shard outputs are *invariant to the worker count*
  for any ``workers >= 2``, because neither the shard boundaries nor the
  shard streams depend on the pool size;
* ``workers=1`` deliberately bypasses sharding and consumes the engine's
  own single stream, making it numerically identical to the serial batched
  path under the same engine seed (and therefore different from the
  ``workers >= 2`` sharded streams — the documented caveat).
"""

from __future__ import annotations

from typing import Union

import numpy as np

RandomState = Union[None, int, np.random.Generator]


def as_generator(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` for fresh OS entropy, an ``int`` seed for reproducibility,
        or an existing generator which is returned unchanged.
    """
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Child streams are derived through ``Generator.spawn`` so that parallel
    workloads (e.g. per-tuple sampling in the query engine) do not share a
    stream and therefore do not produce correlated samples.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return list(rng.spawn(count))


def spawn_keyed(seed: int, shard_index: int) -> np.random.Generator:
    """Deterministic child generator for shard ``shard_index`` of run ``seed``.

    Built on :class:`numpy.random.SeedSequence` spawning: the returned
    generator is exactly ``default_rng(SeedSequence(seed).spawn(n)[shard_index])``
    for any ``n > shard_index`` (a child's entropy depends only on its spawn
    key, so constructing it directly is equivalent and O(1)).  Streams for
    different shard indices are statistically independent, and the stream for
    a given ``(seed, shard_index)`` pair never depends on how many other
    shards exist or which process consumes it — see the module docstring for
    the full determinism contract.
    """
    if shard_index < 0:
        raise ValueError(f"shard_index must be non-negative, got {shard_index}")
    sequence = np.random.SeedSequence(seed, spawn_key=(shard_index,))
    return np.random.default_rng(sequence)


def derive_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed from ``rng`` for handing to external code."""
    return int(rng.integers(0, 2**63 - 1))
