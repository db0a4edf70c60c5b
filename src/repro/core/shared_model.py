"""Live shared GP emulator state for concurrent learners (``merge="shared"``).

Under ``merge="discard"`` every shard worker relearns the emulator from
scratch.  This module promotes the emulator's training matrix to a **live
shared model**:

- :class:`SharedEmulatorStore` — a lock-protected, version-fenced,
  deduplicating append-only matrix of ``(x, y)`` training observations.
  The version is simply the number of committed rows, so ``fetch_since``
  is an O(delta) slice and two equal readings bracket a window in which
  nothing was learned anywhere.
- :class:`EmulatorSync` — binds one store to one
  :class:`~repro.core.emulator.GPEmulator`: ``sync()`` publishes the
  emulator's locally-evaluated rows and absorbs everything other learners
  committed since the last sync (one store round-trip), using the blocked
  incremental inverse update of
  :meth:`~repro.gp.regression.GaussianProcess.add_points`.  Wall-clock
  spent is recorded under the ``model_append`` / ``model_refresh`` phases.
- :class:`SharedModelManager` / :func:`serve_shared_store` — a lightweight
  model-server endpoint for process-pool shards: the authoritative store
  lives in a manager process and workers exchange rows through a picklable
  proxy.  Each process runs one server, forked by its first shared query
  and kept for later ones (replaced if it died, never inherited by a forked
  child, shut down at interpreter exit); each query takes a fresh store
  from it, which the server drops when the query's last proxy is gone.
  The server is forked, not spawned: a spawned interpreter would pay
  ~0.4 s of imports on the first shared query and re-run an unguarded
  script's top level.
  Thread-level consumers (pipeline walks, the serving layer) use the store
  object directly.

Values absorbed from the store are never re-charged to the UDF — the
learner that evaluated them already paid — so exact charge accounting is
preserved: every UDF call is charged exactly once, in the shard that made
it.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing.managers import BaseManager
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.timing import PhaseTimings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.emulator import GPEmulator

_EMPTY_ROWS: tuple[int, ...] = (0, 0)


def _as_matrix(X: Optional[np.ndarray]) -> np.ndarray:
    """Coerce ``X`` to a float ``(k, d)`` matrix (``(0, 0)`` when empty)."""
    if X is None:
        return np.empty(_EMPTY_ROWS, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return X.reshape((0, X.shape[1] if X.ndim == 2 else 0))
    return np.atleast_2d(X)


class SharedEmulatorStore:
    """Version-fenced shared training matrix with a deduplicating append.

    The store is the single source of truth for what has been *learned* —
    each committed row is one UDF evaluation some learner paid for.  Rows
    are deduplicated on the input point's byte representation, commits are
    serialised under one lock, and the monotone :meth:`current_version`
    equals the number of committed rows, so consumers fence with "give me
    everything after version ``v``" and absorption order is identical for
    every consumer.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._keys: set[bytes] = set()
        self._rows: list[np.ndarray] = []
        self._values: list[float] = []
        self._dimension: int = 0
        self._initialization_claimed = False
        self._theta: Optional[np.ndarray] = None

    # -- commit protocol ---------------------------------------------------------
    def current_version(self) -> int:
        """Number of committed rows (the fence consumers synchronise on)."""
        with self._lock:
            return len(self._rows)

    def append(self, X: np.ndarray, y: np.ndarray) -> int:
        """Commit observation rows, skipping duplicates; returns the new version.

        Duplicate inputs (bytewise-equal rows already committed) are
        dropped silently: two learners racing to publish the same point is
        the expected case, not an error, and the first commit wins.
        """
        X = _as_matrix(X)
        y = np.asarray(y, dtype=float).ravel()
        with self._lock:
            if X.shape[0]:
                if self._dimension == 0:
                    self._dimension = int(X.shape[1])
                for row, value in zip(X, y):
                    key = row.tobytes()
                    if key in self._keys:
                        continue
                    self._keys.add(key)
                    self._rows.append(row.copy())
                    self._values.append(float(value))
            return len(self._rows)

    def fetch_since(self, version: int) -> tuple[int, np.ndarray, np.ndarray]:
        """Rows committed after ``version``, in commit order, plus the new fence."""
        with self._lock:
            current = len(self._rows)
            start = max(0, min(int(version), current))
            if start >= current:
                return current, np.empty((0, self._dimension), dtype=float), np.empty(0)
            X = np.array(self._rows[start:current], dtype=float)
            y = np.array(self._values[start:current], dtype=float)
            return current, X, y

    def exchange(
        self, X: np.ndarray, y: np.ndarray, seen_version: int
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Atomically publish ``(X, y)`` and fetch rows committed by *others*.

        One round-trip replacement for :meth:`append` + :meth:`fetch_since`:
        the returned rows are exactly those committed between
        ``seen_version`` and the start of this call, so the caller never
        receives back the rows it just published.
        """
        with self._lock:
            version_before = len(self._rows)
            _, remote_X, remote_y = self.fetch_since(seen_version)
            if remote_X.shape[0] > version_before - max(0, int(seen_version)):
                remote_X = remote_X[: version_before - max(0, int(seen_version))]
                remote_y = remote_y[: remote_X.shape[0]]
            new_version = self.append(X, y)
            return new_version, remote_X, remote_y

    # -- cold-start coordination ---------------------------------------------------
    def claim_initialization(self) -> bool:
        """Atomically claim the right to pay for the initial training design.

        Concurrent cold learners would otherwise all spend
        ``initial_training_points`` UDF calls on near-identical designs.
        The first caller gets ``True`` and must train-and-publish; later
        callers get ``False`` and should :meth:`await_version` instead
        (falling back to their own design on timeout, for liveness).
        """
        with self._lock:
            if self._initialization_claimed:
                return False
            self._initialization_claimed = True
            return True

    def await_version(
        self, min_version: int, timeout: float = 5.0, poll: float = 0.01
    ) -> int:
        """Block until at least ``min_version`` rows are committed, or timeout.

        Returns the version observed last; callers must re-check it against
        ``min_version`` — a timeout is not an error, just a signal to stop
        waiting on a learner that may have crashed.
        """
        deadline = time.monotonic() + max(0.0, float(timeout))
        while True:
            current = self.current_version()
            if current >= min_version or time.monotonic() >= deadline:
                return current
            time.sleep(poll)

    # -- hyperparameter sharing ----------------------------------------------------
    def publish_hyperparameters(self, theta: np.ndarray) -> None:
        """Publish trained kernel hyperparameters (log space) for cold learners."""
        with self._lock:
            self._theta = np.asarray(theta, dtype=float).copy()

    def hyperparameters(self) -> Optional[np.ndarray]:
        """Most recently published kernel hyperparameters, or ``None``."""
        with self._lock:
            return None if self._theta is None else self._theta.copy()


class EmulatorSync:
    """Two-way synchronisation between one emulator and a shared store.

    Install an instance on an :class:`~repro.core.olgapro.OLGAPRO`
    processor (its ``model_sync`` seam) and every tuple boundary becomes a
    learning exchange: locally-evaluated training rows are published and
    rows other learners committed since the last exchange are absorbed via
    the blocked incremental inverse update.  Absorption never calls the
    UDF, so charge accounting stays exact.

    Wall-clock is recorded into :attr:`timings` under ``model_append``
    (gathering/publishing local rows) and ``model_refresh`` (the store
    round-trip plus absorbing remote rows), which executors surface as
    ``model_append_ms`` / ``model_refresh_ms`` in bench rows.
    """

    def __init__(
        self,
        store: "SharedEmulatorStore",
        emulator: "GPEmulator",
        max_training_points: Optional[int] = None,
        timings: Optional[PhaseTimings] = None,
    ) -> None:
        self.store = store
        self.emulator = emulator
        self.max_training_points = max_training_points
        self.timings = timings if timings is not None else PhaseTimings()
        self.timings.ensure("model_refresh", "model_append")
        #: Store version up to which remote rows have been absorbed.
        self.seen_version = 0
        #: Local model row count up to which rows have been published.
        self._cursor = 0
        #: Keys already exchanged with the store (published or absorbed) —
        #: the guard that keeps a row from ping-ponging between learners.
        self._synced_keys: set[bytes] = set()
        #: Totals for observability and tests.
        self.refresh_count = 0
        self.absorbed_rows = 0
        self.published_rows = 0
        #: Remote rows that did not fit under ``max_training_points``.
        self.dropped_rows = 0

    # -- internals ---------------------------------------------------------------
    def _gather_unpublished(self) -> tuple[np.ndarray, np.ndarray]:
        """Local model rows beyond the publish cursor not yet exchanged."""
        emulator = self.emulator
        n = emulator.n_training
        if n <= self._cursor:
            return np.empty(_EMPTY_ROWS, dtype=float), np.empty(0)
        X = emulator.gp.X_train[self._cursor:]
        y = emulator.gp.y_train[self._cursor:]
        keep = [i for i, row in enumerate(X) if row.tobytes() not in self._synced_keys]
        self._cursor = n
        if len(keep) != X.shape[0]:
            X = X[keep]
            y = y[keep]
        return X, y

    def _absorb(self, X: np.ndarray, y: np.ndarray) -> int:
        """Absorb remote rows the local model lacks, respecting the cap."""
        if X.shape[0] == 0:
            return 0
        emulator = self.emulator
        local: set[bytes] = set()
        if emulator.n_training:
            local = {row.tobytes() for row in emulator.gp.X_train}
        keep = [
            i
            for i, row in enumerate(X)
            if row.tobytes() not in local
        ]
        if self.max_training_points is not None:
            room = max(0, int(self.max_training_points) - emulator.n_training)
            if len(keep) > room:
                self.dropped_rows += len(keep) - room
                keep = keep[:room]
        for i in keep:
            self._synced_keys.add(X[i].tobytes())
        if not keep:
            return 0
        emulator.absorb_observations(X[keep], y[keep])
        self._cursor = emulator.n_training
        self.absorbed_rows += len(keep)
        return len(keep)

    # -- the exchange protocol ------------------------------------------------------
    def publish(self) -> int:
        """Push locally-evaluated rows to the store; returns rows committed."""
        with self.timings.measure("model_append"):
            X, y = self._gather_unpublished()
            if X.shape[0] == 0:
                return 0
            for row in X:
                self._synced_keys.add(row.tobytes())
            self.store.append(X, y)
            self.published_rows += X.shape[0]
            return int(X.shape[0])

    def refresh(self) -> int:
        """Absorb rows other learners committed since the last exchange."""
        with self.timings.measure("model_refresh"):
            version, X, y = self.store.fetch_since(self.seen_version)
            self.seen_version = version
            self.refresh_count += 1
            return self._absorb(X, y)

    def sync(self) -> tuple[int, int]:
        """One full exchange: publish then refresh in a single store round-trip.

        Returns ``(published, absorbed)`` row counts.  This is the call
        executors place at tuple boundaries — one lock acquisition (one
        proxy round-trip for process shards) covers both directions.
        """
        with self.timings.measure("model_append"):
            X_out, y_out = self._gather_unpublished()
            for row in X_out:
                self._synced_keys.add(row.tobytes())
        with self.timings.measure("model_refresh"):
            version, X_in, y_in = self.store.exchange(X_out, y_out, self.seen_version)
            self.seen_version = version
            self.refresh_count += 1
            self.published_rows += int(X_out.shape[0])
            absorbed = self._absorb(X_in, y_in)
        return int(X_out.shape[0]), absorbed

    # -- cold start -----------------------------------------------------------------
    def seed(self, min_rows: int) -> bool:
        """Try to warm-start the bound emulator entirely from the store.

        Absorbs everything currently committed; succeeds when the model
        ends up with at least ``min_rows`` training rows (a store seeded by
        another learner's initial design).  On success the kernel
        hyperparameters are taken from the store when published there, and
        refit locally otherwise — CPU-only either way, zero UDF calls.
        """
        self.sync()
        emulator = self.emulator
        if emulator.n_training < max(1, int(min_rows)):
            return False
        if not emulator._trained_hyperparameters:
            theta = self.store.hyperparameters()
            if theta is not None:
                emulator.gp.set_hyperparameters(theta)
                emulator._trained_hyperparameters = True
            else:
                emulator.retrain()
        return True

    def seed_or_wait(self, min_rows: int, timeout: float = 5.0) -> bool:
        """Seed from the store, waiting for a claimed initializer if needed.

        Returns ``True`` when the emulator was warm-started without paying
        any UDF calls.  Returns ``False`` when this learner should pay for
        the initial design itself — either it won the initialization claim
        or the claimed initializer failed to publish before ``timeout``.
        """
        if self.seed(min_rows):
            return True
        if self.store.claim_initialization():
            return False
        self.store.await_version(min_rows, timeout=timeout)
        return self.seed(min_rows)

    def publish_hyperparameters(self) -> None:
        """Publish the bound emulator's trained kernel hyperparameters."""
        if self.emulator._trained_hyperparameters:
            self.store.publish_hyperparameters(self.emulator.gp.kernel.theta)


class SharedModelManager(BaseManager):
    """Model-server endpoint exporting :class:`SharedEmulatorStore` proxies.

    Process-pool shards cannot share a Python object, so the authoritative
    store lives in a small manager process started on the parent;
    :func:`serve_shared_store` hands back a proxy that pickles into worker
    processes, where every store method becomes one IPC round-trip.
    """


SharedModelManager.register("SharedEmulatorStore", SharedEmulatorStore)

_server_lock = threading.Lock()
#: This process's model server, once one has started.
_server: Optional[SharedModelManager] = None


def _forget_parent_server() -> None:
    """In a forked child: start with no server, and never stop the parent's.

    The lock may have been held by a thread the child does not have.  Under
    a bare ``os.fork`` the parent's exit finalizer for the server is
    inherited too; it is cancelled so the child's exit leaves it running.
    """
    global _server, _server_lock
    if _server is not None:
        _server.shutdown.cancel()  # type: ignore[attr-defined]
    _server, _server_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_parent_server)


def serve_shared_store() -> SharedEmulatorStore:
    """A fresh store proxy on this process's model server.

    The first call forks the server; later calls reuse it, and a call that
    finds it dead starts a replacement.  A forked child never reuses its
    parent's server.  The proxy behaves like a :class:`SharedEmulatorStore`
    and survives pickling into pool workers; the server drops the store
    once the last proxy to it is gone, and the server itself shuts down at
    interpreter exit through the finalizer :mod:`multiprocessing` registers
    when it starts.
    """
    global _server
    with _server_lock:
        if _server is not None:
            try:
                return _server.SharedEmulatorStore()  # type: ignore[attr-defined]
            except (OSError, EOFError):  # the server died: reap it, start anew
                _server.shutdown()  # type: ignore[attr-defined]
        manager = SharedModelManager()
        manager.start()
        _server = manager
        return manager.SharedEmulatorStore()  # type: ignore[attr-defined]
