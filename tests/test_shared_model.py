"""Live shared emulator model: store protocol, sync exchanges, endpoint.

Contracts under test (see :mod:`repro.core.shared_model`):

* the store's version is the committed row count, appends dedupe on the
  input point's bytes, and ``fetch_since``/``exchange`` return rows in
  commit order without ever echoing a caller's own publication back;
* ``claim_initialization`` hands the initial-design bill to exactly one
  learner, and ``await_version`` bounds the others' wait;
* :class:`~repro.core.shared_model.EmulatorSync` publishes exactly the
  rows its emulator evaluated locally, absorbs remote rows without
  re-charging the UDF, honours the training cap, and records its cost
  under the ``model_append`` / ``model_refresh`` phases;
* an installed sync exchanges at *every* tuple boundary of the commit loop,
  whatever (window, lookahead) the plan runs the loop at;
* the manager endpoint serves a real store through a picklable proxy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.core.emulator import GPEmulator
from repro.core.shared_model import (
    EmulatorSync,
    SharedEmulatorStore,
    serve_shared_store,
)
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.timing import PhaseTimings
from repro.udf.base import UDF
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf


def _rows(n, d=2, offset=0.0):
    """n deterministic distinct d-dimensional points."""
    base = np.arange(n * d, dtype=float).reshape(n, d)
    return base + offset


def _f(X):
    X = np.atleast_2d(X)
    return np.sin(X[:, 0]) + 0.5 * X[:, 1]


def _emulator(seed=7):
    del seed  # the emulator itself is deterministic; kept for call-site intent
    udf = UDF(_f, dimension=2, name="shared-test", vectorized=True)
    return GPEmulator(udf)


# ---------------------------------------------------------------------------
# SharedEmulatorStore
# ---------------------------------------------------------------------------

def test_store_version_counts_committed_rows_and_dedupes():
    store = SharedEmulatorStore()
    assert store.current_version() == 0
    X = _rows(3)
    version = store.append(X, _f(X))
    assert version == store.current_version() == 3
    # Re-appending the same rows commits nothing new.
    assert store.append(X, _f(X)) == 3
    # A mixed batch commits only the genuinely new row.
    mixed = np.vstack([X[1], _rows(1, offset=100.0)])
    assert store.append(mixed, _f(mixed)) == 4


def test_fetch_since_slices_in_commit_order():
    store = SharedEmulatorStore()
    first = _rows(2)
    second = _rows(2, offset=50.0)
    store.append(first, _f(first))
    fence = store.current_version()
    store.append(second, _f(second))
    version, X, y = store.fetch_since(fence)
    assert version == 4
    assert np.array_equal(X, second)
    assert np.array_equal(y, _f(second))
    # Fetching at the head returns an empty, correctly-shaped delta.
    version, X, y = store.fetch_since(version)
    assert version == 4 and X.shape == (0, 2) and y.shape == (0,)


def test_exchange_never_returns_the_callers_own_rows():
    store = SharedEmulatorStore()
    theirs = _rows(3)
    store.append(theirs, _f(theirs))
    mine = _rows(2, offset=200.0)
    version, remote_X, remote_y = store.exchange(mine, _f(mine), seen_version=0)
    assert version == 5
    assert np.array_equal(remote_X, theirs)
    assert np.array_equal(remote_y, _f(theirs))
    # A second exchange from the same caller sees nothing new.
    version, remote_X, _ = store.exchange(
        np.empty((0, 2)), np.empty(0), seen_version=version
    )
    assert version == 5 and remote_X.shape[0] == 0


def test_claim_initialization_is_single_winner():
    store = SharedEmulatorStore()
    assert store.claim_initialization() is True
    assert store.claim_initialization() is False


def test_await_version_returns_on_commit_or_timeout():
    store = SharedEmulatorStore()
    X = _rows(2)
    store.append(X, _f(X))
    assert store.await_version(2, timeout=0.0) == 2
    # A timeout is a liveness signal, not an error.
    assert store.await_version(10, timeout=0.05, poll=0.01) == 2


def test_hyperparameter_publication_round_trips_a_copy():
    store = SharedEmulatorStore()
    assert store.hyperparameters() is None
    theta = np.array([0.1, -0.5])
    store.publish_hyperparameters(theta)
    got = store.hyperparameters()
    assert np.array_equal(got, theta)
    got[0] = 99.0
    assert np.array_equal(store.hyperparameters(), theta)


# ---------------------------------------------------------------------------
# EmulatorSync
# ---------------------------------------------------------------------------

def test_sync_publishes_local_rows_and_absorbs_remote_rows():
    store = SharedEmulatorStore()
    remote = _rows(4, offset=30.0)
    store.append(remote, _f(remote))

    emulator = _emulator()
    local = _rows(3)
    emulator.absorb_observations(local, _f(local))
    sync = EmulatorSync(store, emulator)
    published, absorbed = sync.sync()
    assert (published, absorbed) == (3, 4)
    assert store.current_version() == 7
    assert emulator.n_training == 7
    # The exchange is idempotent once both sides are caught up.
    assert sync.sync() == (0, 0)
    assert sync.published_rows == 3 and sync.absorbed_rows == 4


def test_absorbed_rows_are_never_republished():
    store = SharedEmulatorStore()
    remote = _rows(2, offset=30.0)
    store.append(remote, _f(remote))
    emulator = _emulator()
    sync = EmulatorSync(store, emulator)
    sync.sync()  # absorbs the remote rows into the local model
    assert emulator.n_training == 2
    # The absorbed rows sit in the local model beyond the publish cursor's
    # start, but must not ping-pong back into the store as "local" rows.
    assert sync.sync() == (0, 0)
    assert store.current_version() == 2


def test_absorb_respects_the_training_cap_and_counts_drops():
    store = SharedEmulatorStore()
    remote = _rows(6, offset=30.0)
    store.append(remote, _f(remote))
    emulator = _emulator()
    local = _rows(2)
    emulator.absorb_observations(local, _f(local))
    sync = EmulatorSync(store, emulator, max_training_points=5)
    _, absorbed = sync.sync()
    assert absorbed == 3
    assert emulator.n_training == 5
    assert sync.dropped_rows == 3


def test_sync_records_model_phase_timings():
    store = SharedEmulatorStore()
    timings = PhaseTimings()
    emulator = _emulator()
    local = _rows(3)
    emulator.absorb_observations(local, _f(local))
    sync = EmulatorSync(store, emulator, timings=timings)
    sync.sync()
    # Both phases are materialised (bench rows render them as
    # ``model_append_ms`` / ``model_refresh_ms``); the exchange itself is
    # charged to the refresh phase.
    assert timings.get("model_append") >= 0.0
    assert "model_append" in timings.seconds
    assert timings.get("model_refresh") > 0.0


def test_seed_warm_starts_from_a_seeded_store_without_udf_calls():
    store = SharedEmulatorStore()
    X = _rows(10)
    store.append(X, _f(X))
    store.publish_hyperparameters(np.array([0.2, 0.3]))
    emulator = _emulator()
    sync = EmulatorSync(store, emulator)
    assert sync.seed(min_rows=10) is True
    assert emulator.n_training == 10
    # Hyperparameters came from the store: no local ML refit needed.
    assert emulator._trained_hyperparameters
    assert np.allclose(emulator.gp.kernel.theta, [0.2, 0.3])


def test_seed_or_wait_elects_exactly_one_initializer():
    store = SharedEmulatorStore()
    first = EmulatorSync(store, _emulator(seed=1))
    second = EmulatorSync(store, _emulator(seed=2))
    # Empty store: the first learner must pay for the design itself.
    assert first.seed_or_wait(min_rows=5, timeout=0.05) is False
    X = _rows(5)
    first.emulator.absorb_observations(X, _f(X))
    first.sync()
    # The second learner seeds from the published design, zero UDF calls.
    assert second.seed_or_wait(min_rows=5, timeout=0.05) is True
    assert second.emulator.n_training == 5


def test_seed_or_wait_times_out_to_self_sufficiency():
    store = SharedEmulatorStore()
    store.claim_initialization()  # a claimed initializer that never publishes
    sync = EmulatorSync(store, _emulator())
    assert sync.seed_or_wait(min_rows=5, timeout=0.05) is False


# ---------------------------------------------------------------------------
# The commit loop: tuple-boundary exchanges at every (window, lookahead)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "knobs",
    [{}, {"async_inflight": 4}, {"async_inflight": 4, "pipeline_lookahead": 2}],
    ids=["batched", "window", "window+lookahead"],
)
def test_one_chunk_exchanges_at_every_tuple_boundary(knobs):
    udf = reference_function("F4", simulated_eval_time=1e-3)
    engine = UDFExecutionEngine(
        strategy="gp",
        requirement=AccuracyRequirement(epsilon=0.15, delta=0.05),
        random_state=31,
        n_samples=150,
    )
    dists = list(
        input_stream(workload_for_udf(udf), 6, random_state=np.random.default_rng(4))
    )
    olgapro = engine.olgapro_for(udf)
    store = SharedEmulatorStore()
    sync = olgapro.model_sync = EmulatorSync(store, olgapro.emulator)
    versions = []
    exchange = store.exchange

    def recording_exchange(*args):
        result = exchange(*args)
        versions.append(store.current_version())
        return result

    store.exchange = recording_exchange
    engine.compute_with_plan(udf, dists, ExecutionPlan(batch_size=6, **knobs))
    # One exchange before each of the chunk's six tuples and one after the
    # last (plus the initial-design publication), and the cold stream's
    # refinement makes the store grow *between* the first and last commit.
    assert len(versions) >= 7
    assert versions == sorted(versions)
    assert versions[1] < versions[-2]
    # Everything the run added was published — exactly once.
    assert sync.published_rows == olgapro.n_training == store.current_version()


# ---------------------------------------------------------------------------
# The process endpoint
# ---------------------------------------------------------------------------

def test_manager_endpoint_serves_a_store_proxy():
    store = serve_shared_store()
    X = _rows(3)
    assert store.append(X, _f(X)) == 3
    version, remote_X, remote_y = store.fetch_since(0)
    assert version == 3
    assert np.array_equal(remote_X, X)
    assert np.array_equal(remote_y, _f(X))
    assert store.claim_initialization() is True
    assert store.claim_initialization() is False
    # A sync works identically through the proxy.
    emulator = _emulator()
    sync = EmulatorSync(store, emulator)
    _, absorbed = sync.sync()
    assert absorbed == 3
    # Every call serves a fresh store from the same server.
    assert serve_shared_store().current_version() == 0
