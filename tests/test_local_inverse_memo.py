"""Contract of the per-state local-inverse memo on the stock path.

:meth:`repro.gp.regression.GaussianProcess.local_inverse` keeps the ``O(l^3)``
inverse :meth:`LocalInferenceEngine.predict` needs on the committed
:class:`~repro.gp.regression.GPState`, for as long as the model commits no
other.  What must hold: every mutation recomputes, an
unmoved model factorises once, the memo changes no number, nothing of it
crosses a pickle, and it stays under its cap.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.gp.linalg as linalg
import repro.gp.regression as regression
from repro.config import DEFAULT_GAMMA_FRACTION, DEFAULT_MC_FRACTION
from repro.core.accuracy import AccuracyRequirement
from repro.core.emulator import GPEmulator
from repro.core.local_inference import LocalInferenceEngine
from repro.core.olgapro import OLGAPRO
from repro.gp.kernels import SquaredExponential, pairwise_dists
from repro.gp.regression import GaussianProcess
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf


@pytest.fixture
def factorisations(monkeypatch):
    """Running count of ``jittered_cholesky`` calls (a one-element list)."""
    count = [0]
    original = linalg.jittered_cholesky

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    # Every call site resolves the name in its own module at call time.
    monkeypatch.setattr(linalg, "jittered_cholesky", counting)
    monkeypatch.setattr(regression, "jittered_cholesky", counting)
    return count


def _model(n: int = 30, seed: int = 0) -> tuple[GaussianProcess, np.random.Generator]:
    rng = np.random.default_rng(seed)
    gp = GaussianProcess(kernel=SquaredExponential(1.0, 1.2))
    X = rng.uniform(0.0, 10.0, size=(n, 2))
    gp.fit(X, np.sin(X[:, 0]) + 0.1 * X[:, 1])
    return gp, rng


def _samples(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(loc=[4.0, 6.0], scale=0.4, size=(40, 2))


def _predict(gp: GaussianProcess, samples: np.ndarray):
    # Γ loose enough that a proper subset is selected.
    return LocalInferenceEngine(gamma_threshold=0.05).predict(gp, samples)


def test_an_unmoved_model_factorises_once(factorisations):
    gp, rng = _model()
    samples = _samples(rng)
    before = factorisations[0]
    first = _predict(gp, samples)
    assert 0 < first.n_selected < gp.n_training
    assert factorisations[0] == before + 1
    second = _predict(gp, samples)
    assert factorisations[0] == before + 1
    assert np.array_equal(first.means, second.means)
    assert np.array_equal(first.stds, second.stds)


def _add_point(gp, rng):
    gp.add_point(rng.uniform(0.0, 10.0, size=2), 0.3)


def _add_points(gp, rng):
    gp.add_points(rng.uniform(0.0, 10.0, size=(3, 2)), rng.normal(size=3))


def _set_hyperparameters(gp, rng):
    del rng
    gp.set_hyperparameters(gp.kernel.theta + 0.05)


def _restore(gp, rng):
    del rng
    gp.restore(gp.snapshot())  # the same state, one version later


def _fit(gp, rng):
    del rng
    gp.fit(gp.X_train, gp.y_train)


def _roll_back(gp, rng):
    """A mid-batch rollback: the model grows, files an entry, then shrinks."""
    state = gp.snapshot()
    _add_points(gp, rng)
    _predict(gp, _samples(rng))
    gp.restore(state)


@pytest.mark.parametrize(
    "mutate", [_add_point, _add_points, _set_hyperparameters, _restore, _fit, _roll_back]
)
def test_every_mutation_recomputes(factorisations, mutate):
    gp, rng = _model()
    samples = _samples(rng)
    _predict(gp, samples)
    mutate(gp, rng)
    before = factorisations[0]
    result = _predict(gp, samples)
    assert factorisations[0] == before + 1
    # ... to exactly what a model that never held a memo computes.
    fresh = _predict(pickle.loads(pickle.dumps(gp)), samples)
    assert np.array_equal(result.means, fresh.means)
    assert np.array_equal(result.stds, fresh.stds)
    assert np.array_equal(result.selected_indices, fresh.selected_indices)


def test_the_memo_changes_no_number():
    gp, rng = _model(n=45, seed=3)
    for _ in range(6):
        samples = _samples(rng)
        selected = _predict(gp, samples).selected_indices
        X_local = gp.X_train[selected]
        K_local = gp.kernel.from_distances(pairwise_dists(X_local, X_local))
        K_local += gp.effective_noise() * np.eye(selected.size)
        direct = linalg.inverse_from_cholesky(linalg.jittered_cholesky(K_local)[0])
        assert np.array_equal(gp.local_inverse(selected), direct)
        assert not gp.local_inverse(selected).flags.writeable


def _trained(function: str, n_training: int) -> GaussianProcess:
    emulator = GPEmulator(reference_function(function, simulated_eval_time=0.0))
    emulator.train_initial(n_training, random_state=np.random.default_rng(31))
    return emulator.gp


def _assert_memo_free_equal(gp: GaussianProcess, sample_sets: list) -> None:
    """Predict each set in turn on ``gp``, whose memo fills and hits as a
    stream's does, and on a memo-free copy per set; the two agree bitwise."""
    engine = LocalInferenceEngine(
        gamma_threshold=DEFAULT_GAMMA_FRACTION * float(np.ptp(gp.y_train))
    )
    subsets = set()
    for i, samples in enumerate(sample_sets):
        memoised = engine.predict(gp, samples)
        fresh = engine.predict(pickle.loads(pickle.dumps(gp)), samples)
        subsets.add(memoised.selected_indices.tobytes())
        assert np.array_equal(memoised.selected_indices, fresh.selected_indices), i
        assert np.array_equal(memoised.means, fresh.means), i
        assert np.array_equal(memoised.stds, fresh.stds), i
    assert len(subsets) < len(sample_sets), "every set selected its own subset: no hit"


def test_the_memo_changes_no_number_at_production_shape():
    """The shape a real query has, not a toy one: ε = 0.12 draws m = 1239
    Monte-Carlo rows per tuple and a warm F1 model holds about 56 points."""
    gp = _trained("F1", 56)
    m = AccuracyRequirement(epsilon=0.12, delta=0.05).split(DEFAULT_MC_FRACTION).mc_samples
    assert m == 1239
    rng = np.random.default_rng(4)
    udf = reference_function("F1")
    sample_sets = [
        d.sample(m, random_state=rng)
        for d in input_stream(workload_for_udf(udf), 32, random_state=rng)
    ]
    _assert_memo_free_equal(gp, sample_sets)


@pytest.mark.parametrize(
    "function, n_training, m",
    [("F1", 120, 64), ("F1", 116, 96), ("F2", 300, 64)],
    ids=["1d-n120-m64", "1d-n116-m96", "2d-n300-m64"],
)
def test_the_memo_changes_no_number_where_blas_switches_kernels(function, n_training, m):
    """Shapes at which OpenBLAS sends a small operand (a 64-row block
    against 100+ training points) down its small-matrix kernel and a
    larger one down the blocked kernel, which round differently.  A memo
    hit must still hand back the inverse a fresh factorisation builds."""
    gp = _trained(function, n_training)
    rng = np.random.default_rng(4)
    udf = reference_function(function)
    sample_sets = [
        d.sample(m, random_state=rng)
        for d in input_stream(workload_for_udf(udf), 8, random_state=rng)
    ]
    # Each set twice, as a re-check of an unmoved model reads it.
    _assert_memo_free_equal(gp, [s for samples in sample_sets for s in (samples, samples)])


def test_a_build_across_a_mutation_files_on_the_state_it_read(monkeypatch):
    gp, rng = _model()
    selected = np.arange(10)
    state = gp.snapshot()
    original = regression.inverse_from_cholesky

    def mutating(L):
        monkeypatch.setattr(regression, "inverse_from_cholesky", original)
        _add_point(gp, rng)  # the model moves under the build
        return original(L)

    monkeypatch.setattr(regression, "inverse_from_cholesky", mutating)
    built = gp.local_inverse(selected)
    assert gp.snapshot() is not state
    assert gp.snapshot().local_inverses == {}
    assert state.local_inverses == {selected.tobytes(): built}
    # ... and what it filed is the inverse of the rows it was built from.
    X_local = state.X[selected]
    K_local = gp.kernel.from_distances(pairwise_dists(X_local, X_local))
    K_local += gp.effective_noise() * np.eye(selected.size)
    direct = linalg.inverse_from_cholesky(linalg.jittered_cholesky(K_local)[0])
    assert np.array_equal(built, direct)


def test_pickles_carry_no_entries():
    gp, rng = _model()
    _predict(gp, _samples(rng))
    assert len(gp.snapshot().local_inverses) == 1
    copy = pickle.loads(pickle.dumps(gp))
    assert copy.version == gp.version
    assert copy.snapshot().local_inverses == {}
    assert len(gp.snapshot().local_inverses) == 1  # pickling leaves the original's alone

    udf = reference_function("F1")
    processor = OLGAPRO(udf, AccuracyRequirement(0.2, 0.05), n_samples=64, random_state=0)
    for dist in input_stream(workload_for_udf(udf), 3, random_state=np.random.default_rng(1)):
        processor.process(dist)
    assert processor.emulator.gp.snapshot().local_inverses
    shipped = pickle.loads(pickle.dumps(processor))
    assert shipped.emulator.gp.snapshot().local_inverses == {}


def test_the_cap_holds_on_a_quiet_stream(monkeypatch, factorisations):
    gp, rng = _model(n=60, seed=4)
    centres = rng.uniform(2.0, 8.0, size=(6, 2))
    # Room for about three of this model's subsets, so the stream must evict.
    cap = 3 * 30**2
    monkeypatch.setattr(regression, "_LOCAL_INVERSE_CAP", cap)
    version, before, subsets = gp.version, factorisations[0], set()
    for i in range(500):
        # Runs of neighbouring tuples, as a scan over clustered data produces.
        samples = rng.normal(loc=centres[(i // 10) % 6], scale=0.05, size=(40, 2))
        subsets.add(_predict(gp, samples).selected_indices.tobytes())
        memo = gp.snapshot().local_inverses
        assert sum(entry.size for entry in memo.values()) <= cap
    assert gp.version == version
    assert len(subsets) > 3, "the stream never had to evict"
    assert len(subsets) <= factorisations[0] - before < 250, "the memo never hit"
