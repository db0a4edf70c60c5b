"""Unit tests for local inference (§5.1)."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import local_inference
from repro.core.accuracy import AccuracyRequirement
from repro.core.local_inference import (
    LocalInferenceEngine,
    global_inference,
    initial_search_radius,
    kernel_at_distance,
    omitted_weight_bound,
)
from repro.engine import ExecutionPlan, UDFExecutionEngine
from repro.exceptions import GPError
from repro.gp.kernels import SquaredExponential
from repro.gp.regression import GaussianProcess
from repro.index.bounding_box import BoundingBox
from repro.index.rtree import RTree
from repro.udf.synthetic import reference_function
from repro.workloads.generators import input_stream, workload_for_udf


def build_model(n=120, seed=0, lengthscale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 2))
    y = np.sin(X[:, 0]) + np.cos(X[:, 1])
    gp = GaussianProcess(kernel=SquaredExponential(signal_std=1.0, lengthscale=lengthscale))
    gp.fit(X, y)
    index = RTree(dimension=2)
    index.bulk_load(X)
    return gp, index


class TestKernelAtDistance:
    def test_matches_direct_evaluation(self):
        kernel = SquaredExponential(signal_std=2.0, lengthscale=1.5)
        distances = np.array([0.0, 1.0, 3.0])
        values = kernel_at_distance(kernel, distances)
        expected = 4.0 * np.exp(-0.5 * (distances / 1.5) ** 2)
        assert np.allclose(values, expected)

    def test_monotone_decreasing(self):
        kernel = SquaredExponential()
        values = kernel_at_distance(kernel, np.array([0.0, 0.5, 1.0, 2.0, 4.0]))
        assert np.all(np.diff(values) < 0)


class TestOmittedWeightBound:
    def test_zero_when_nothing_excluded(self):
        kernel = SquaredExponential()
        box = BoundingBox(np.zeros(2), np.ones(2))
        assert omitted_weight_bound(kernel, np.empty((0, 2)), np.empty(0), box) == 0.0

    def test_bound_dominates_true_omitted_weight(self, rng):
        kernel = SquaredExponential(signal_std=1.0, lengthscale=1.0)
        excluded = rng.uniform(-5, 15, size=(40, 2))
        alpha = rng.normal(size=40)
        box = BoundingBox(np.array([4.0, 4.0]), np.array([6.0, 6.0]))
        bound = omitted_weight_bound(kernel, excluded, alpha, box, subdivisions=1)
        # True omitted contribution at many points inside the box.
        for _ in range(200):
            x = rng.uniform(box.low, box.high)
            k = kernel(x.reshape(1, -1), excluded).ravel()
            assert abs(float(k @ alpha)) <= bound + 1e-9

    def test_subdivision_tightens_bound(self, rng):
        kernel = SquaredExponential(signal_std=1.0, lengthscale=1.0)
        excluded = rng.uniform(-5, 15, size=(30, 2))
        alpha = rng.normal(size=30)
        box = BoundingBox(np.array([2.0, 2.0]), np.array([8.0, 8.0]))
        coarse = omitted_weight_bound(kernel, excluded, alpha, box, subdivisions=1)
        fine = omitted_weight_bound(kernel, excluded, alpha, box, subdivisions=3)
        assert fine <= coarse + 1e-12

    def test_mismatched_inputs_rejected(self):
        kernel = SquaredExponential()
        box = BoundingBox(np.zeros(2), np.ones(2))
        with pytest.raises(GPError):
            omitted_weight_bound(kernel, np.zeros((3, 2)), np.zeros(2), box)


class TestInitialRadius:
    def test_larger_threshold_means_smaller_radius(self):
        kernel = SquaredExponential(signal_std=1.0, lengthscale=1.0)
        alpha = np.ones(50)
        tight = initial_search_radius(kernel, alpha, gamma_threshold=0.001)
        loose = initial_search_radius(kernel, alpha, gamma_threshold=1.0)
        assert tight > loose

    def test_huge_threshold_returns_lengthscale(self):
        kernel = SquaredExponential(lengthscale=2.0)
        assert initial_search_radius(kernel, np.ones(3), gamma_threshold=100.0) == 2.0


class TestLocalInferenceEngine:
    def test_validation(self):
        with pytest.raises(GPError):
            LocalInferenceEngine(gamma_threshold=0.0)
        with pytest.raises(GPError):
            LocalInferenceEngine(gamma_threshold=0.1, expansion_factor=1.0)

    def test_local_matches_global_mean_within_gamma(self, rng):
        gp, index = build_model()
        engine = LocalInferenceEngine(gamma_threshold=0.01)
        samples = rng.normal(loc=[5.0, 5.0], scale=0.4, size=(200, 2))
        local = engine.predict(gp, samples)
        global_result = global_inference(gp, samples)
        # The γ threshold bounds the mean-prediction difference.
        assert np.max(np.abs(local.means - global_result.means)) <= 0.01 + 1e-6
        assert local.n_selected <= gp.n_training

    def test_selects_fewer_points_for_larger_gamma(self, rng):
        gp, index = build_model(lengthscale=0.8)
        samples = rng.normal(loc=[5.0, 5.0], scale=0.3, size=(100, 2))
        tight = LocalInferenceEngine(gamma_threshold=1e-4).predict(gp, samples)
        loose = LocalInferenceEngine(gamma_threshold=0.5).predict(gp, samples)
        assert loose.n_selected <= tight.n_selected

    def test_gamma_reported_below_threshold(self, rng):
        gp, index = build_model()
        engine = LocalInferenceEngine(gamma_threshold=0.05)
        samples = rng.normal(loc=[3.0, 7.0], scale=0.3, size=(80, 2))
        result = engine.predict(gp, samples)
        assert result.gamma <= 0.05 + 1e-12

    def test_stds_are_non_negative_and_finite(self, rng):
        gp, index = build_model()
        engine = LocalInferenceEngine(gamma_threshold=0.02)
        samples = rng.normal(loc=[5.0, 5.0], scale=0.5, size=(60, 2))
        result = engine.predict(gp, samples)
        assert np.all(result.stds >= 0)
        assert np.all(np.isfinite(result.stds))

    def test_untrained_gp_rejected(self):
        engine = LocalInferenceEngine(gamma_threshold=0.1)
        with pytest.raises(GPError):
            engine.select_points(GaussianProcess(), RTree(dimension=2), BoundingBox(np.zeros(2), np.ones(2)))
        with pytest.raises(GPError):
            engine.predict(GaussianProcess(), np.zeros((3, 2)))

    @pytest.mark.parametrize("bound_method", ["exact", "box"])
    @pytest.mark.parametrize("gamma_threshold", [1e-4, 0.02, 0.5])
    def test_selection_matches_rtree_reference(self, rng, bound_method, gamma_threshold):
        """One distance pass selects what the paper's R-tree retrieval selects."""
        gp, index = build_model(lengthscale=0.8)
        engine = LocalInferenceEngine(gamma_threshold=gamma_threshold, bound_method=bound_method)
        samples = rng.normal(loc=[4.0, 6.0], scale=0.3, size=(90, 2))
        reference, gamma, radius = engine.select_points(
            gp, index, BoundingBox.from_points(samples), samples=samples
        )
        result = engine.predict(gp, samples)
        assert np.array_equal(result.selected_indices, reference)
        assert result.radius == radius
        assert result.gamma == pytest.approx(gamma, rel=1e-9, abs=1e-15)


class TestGlobalInference:
    def test_uses_all_points(self, rng):
        gp, _ = build_model(n=50)
        samples = rng.uniform(0, 10, size=(20, 2))
        result = global_inference(gp, samples)
        assert result.n_selected == 50
        assert result.gamma == 0.0
        means, stds = gp.predict(samples)
        assert np.allclose(result.means, means)
        assert np.allclose(result.stds, stds)


def _full_schedule(engine, gp, alpha, distances, K_rows):
    """Oracle: the exact-γ radius schedule judging every level by a full matvec.

    Returns the selection ``(selected, γ, radius)`` and the number of full
    matvecs it paid, with no witness row.
    """
    n = alpha.size
    radius = 0.5 * gp.kernel.lengthscale
    rejected, matvecs = 0, 0
    for _ in range(engine.max_expansions):
        kept = distances <= radius
        count = int(np.count_nonzero(kept))
        if count == n:
            break
        if count != rejected:
            matvecs += 1
            gamma = float(np.max(np.abs(K_rows @ np.where(kept, 0.0, alpha))))
            if gamma <= engine.gamma_threshold:
                return (np.flatnonzero(kept), gamma, radius), matvecs
            rejected = count
        radius *= engine.expansion_factor
    return (np.arange(n), 0.0, radius), matvecs


@pytest.fixture
def matvec_spy(monkeypatch):
    """Counts the full matvecs the selection pays."""
    calls = []
    original = local_inference._omitted_at_samples

    def spy(K_rows, omitted_alpha):
        calls.append(K_rows.shape)
        return original(K_rows, omitted_alpha)

    monkeypatch.setattr(local_inference, "_omitted_at_samples", spy)
    return calls


class TestWitnessRow:
    """A witness row only short-cuts rejections: the selection is the full schedule's."""

    def test_selection_is_the_full_schedule_bit_for_bit(self, matvec_spy):
        rng = np.random.default_rng(2024)
        short_cut = decided = 0
        for case in range(80):
            n = int(rng.integers(5, 90))
            lengthscale = float(10 ** rng.uniform(-0.7, 0.7))
            X = rng.uniform(0, 10, size=(n, 2))
            gp = GaussianProcess(
                kernel=SquaredExponential(signal_std=float(10 ** rng.uniform(-1, 1)),
                                          lengthscale=lengthscale)
            ).fit(X, np.sin(X[:, 0]) * np.cos(X[:, 1]) + rng.normal(scale=0.1, size=n))
            # Weights from the model, or wild ones whose terms cancel: the
            # witness must still only reject what the matvec rejects.
            alpha = gp.alpha if case % 4 else rng.normal(scale=1e6, size=n)
            samples = rng.normal(rng.uniform(0, 10, 2), rng.uniform(0.05, 2.0), size=(150, 2))
            box = BoundingBox.from_points(samples)
            K_rows = gp.kernel(samples, X)
            distances = local_inference._distances_to_boxes(X, [box])[:, 0]
            scale = float(np.max(np.abs(K_rows @ alpha)))
            engine = LocalInferenceEngine(gamma_threshold=scale * 10 ** rng.uniform(-4, 0))
            del matvec_spy[:]
            got = engine._select_from_distances(gp, alpha, distances, K_rows, box)
            (selected, gamma, radius), matvecs = _full_schedule(engine, gp, alpha, distances, K_rows)
            assert got[0].tobytes() == selected.tobytes(), case
            assert (got[1], got[2]) == (gamma, radius), case
            short_cut += len(matvec_spy) < matvecs
            decided += len(matvec_spy) > 0
        # Both branches ran: levels the witness rejected alone, and levels the
        # full matvec had to decide.
        assert short_cut > 10 and decided > 10, (short_cut, decided)

    def test_a_warm_f1_model_pays_almost_no_full_matvec(self, matvec_spy, monkeypatch):
        udf = reference_function("F1")
        spec = workload_for_udf(udf)
        engine = UDFExecutionEngine(
            "gp", requirement=AccuracyRequirement(0.12, 0.05), random_state=1
        )
        stream = np.random.default_rng(7)
        engine.compute_with_plan(udf, list(input_stream(spec, 48, random_state=stream)),
                                 ExecutionPlan(batch_size=32))
        # Next to the run, what the full schedule would pay on the same calls.
        full = []
        select = LocalInferenceEngine._select_from_distances

        def both(self, gp, alpha, distances, K_rows, box):
            full.append(_full_schedule(self, gp, alpha, distances, K_rows)[1])
            return select(self, gp, alpha, distances, K_rows, box)

        monkeypatch.setattr(LocalInferenceEngine, "_select_from_distances", both)
        del matvec_spy[:]
        tuples = 32
        engine.compute_with_plan(udf, list(input_stream(spec, tuples, random_state=stream)),
                                 ExecutionPlan(batch_size=32))
        assert sum(full) / tuples > 1.0  # the levels are there to reject
        assert len(matvec_spy) / tuples <= 0.1, (len(matvec_spy), sum(full))


class TestVarianceWorkspace:
    """The variance product's per-thread workspace changes no number."""

    @staticmethod
    def _sample_sets():
        rng = np.random.default_rng(3)
        # Growing and shrinking blocks: the buffer is reused, grown and sliced.
        return [rng.normal(rng.uniform(2, 8, 2), 0.6, size=(m, 2)) for m in (40, 300, 90, 700, 5)]

    def test_reused_memory_gives_the_fresh_allocation_s_bits(self, monkeypatch):
        gp, _ = build_model(n=80)
        engine = LocalInferenceEngine(gamma_threshold=0.02)
        reused = [engine.predict(gp, samples) for samples in self._sample_sets()]
        monkeypatch.setattr(local_inference, "_PRODUCT_WORKSPACE_CAP", 0)
        fresh = [engine.predict(gp, samples) for samples in self._sample_sets()]
        for a, b in zip(reused, fresh):
            assert a.means.tobytes() == b.means.tobytes()
            assert a.stds.tobytes() == b.stds.tobytes()

    def test_threads_do_not_share_it(self):
        gp, _ = build_model(n=80)
        engine = LocalInferenceEngine(gamma_threshold=0.02)
        jobs = self._sample_sets() * 6
        serial = [engine.predict(gp, samples).stds for samples in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(lambda samples: engine.predict(gp, samples).stds, jobs))
        finally:
            sys.setswitchinterval(interval)
        assert [s.tobytes() for s in threaded] == [s.tobytes() for s in serial]
