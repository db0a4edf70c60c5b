"""Unit tests for the instrumented black-box UDF wrapper."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.exceptions import UDFError
from repro.udf.base import UDF, as_udf


class TestEvaluation:
    def test_scalar_call(self):
        udf = UDF(lambda x: float(x[0]) + 1.0, dimension=1)
        assert udf(np.array([2.0])) == 3.0

    def test_wrong_shape_rejected(self):
        udf = UDF(lambda x: 0.0, dimension=2)
        with pytest.raises(UDFError):
            udf(np.array([1.0]))

    def test_non_finite_output_rejected(self):
        udf = UDF(lambda x: float("nan"), dimension=1)
        with pytest.raises(UDFError):
            udf(np.array([0.0]))

    def test_exception_wrapped(self):
        def broken(x):
            raise RuntimeError("boom")

        udf = UDF(broken, dimension=1, name="broken")
        with pytest.raises(UDFError, match="broken"):
            udf(np.array([0.0]))

    def test_batch_non_vectorised(self):
        udf = UDF(lambda x: float(x[0]) * 2.0, dimension=1)
        values = udf.evaluate_batch(np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(values, [2.0, 4.0, 6.0])

    def test_batch_vectorised(self):
        udf = UDF(lambda X: X[:, 0] ** 2, dimension=1, vectorized=True)
        values = udf.evaluate_batch(np.array([[1.0], [3.0]]))
        assert np.allclose(values, [1.0, 9.0])

    def test_vectorised_wrong_length_rejected(self):
        udf = UDF(lambda X: np.zeros(1), dimension=1, vectorized=True)
        with pytest.raises(UDFError):
            udf.evaluate_batch(np.zeros((3, 1)))

    def test_batch_dimension_check(self):
        udf = UDF(lambda x: 0.0, dimension=2)
        with pytest.raises(UDFError):
            udf.evaluate_batch(np.zeros((3, 1)))


class TestInstrumentation:
    def test_call_counting(self):
        udf = UDF(lambda x: 1.0, dimension=1)
        for _ in range(5):
            udf(np.array([0.0]))
        udf.evaluate_batch(np.zeros((3, 1)))
        assert udf.call_count == 8

    def test_reset_counters(self):
        udf = UDF(lambda x: 1.0, dimension=1)
        udf(np.array([0.0]))
        udf.reset_counters()
        assert udf.call_count == 0
        assert udf.real_time == 0.0
        assert udf.waited_time == 0.0

    def test_waited_time_is_the_time_calls_spend_off_the_cpu(self):
        def sleeping(x):
            time.sleep(0.02)
            return 1.0

        def spinning(X):
            end = time.thread_time() + 0.02 * len(X)
            while time.thread_time() < end:
                pass
            return np.ones(len(X))

        asleep = UDF(sleeping, dimension=1)
        busy = UDF(spinning, dimension=1, vectorized=True)
        for _ in range(3):
            asleep(np.array([0.0]))
        busy.evaluate_batch(np.zeros((3, 1)))
        assert 0.9 * asleep.real_time <= asleep.waited_time <= asleep.real_time
        assert busy.real_time >= 0.06
        assert busy.waited_time < 0.5 * busy.real_time

    def test_charged_time_includes_simulated_cost(self):
        udf = UDF(lambda x: 1.0, dimension=1, simulated_eval_time=0.5)
        udf(np.array([0.0]))
        udf(np.array([0.0]))
        assert udf.charged_time >= 1.0
        assert udf.real_time < 0.5  # no actual sleeping happened

    def test_with_simulated_eval_time_copies(self):
        udf = UDF(lambda x: 1.0, dimension=1)
        slow = udf.with_simulated_eval_time(0.1)
        assert slow.simulated_eval_time == 0.1
        assert udf.simulated_eval_time == 0.0
        udf(np.array([0.0]))
        assert slow.call_count == 0  # fresh counters

    def test_measure_eval_time(self):
        udf = UDF(lambda x: 1.0, dimension=1, simulated_eval_time=0.01,
                  domain=(np.array([0.0]), np.array([1.0])))
        measured = udf.measure_eval_time(n_probes=5, random_state=0)
        assert measured >= 0.01

    def test_negative_simulated_time_rejected(self):
        with pytest.raises(UDFError):
            UDF(lambda x: 1.0, dimension=1, simulated_eval_time=-1.0)


class TestDomainAndFactory:
    def test_domain_validation(self):
        with pytest.raises(UDFError):
            UDF(lambda x: 1.0, dimension=2, domain=(np.array([0.0]), np.array([1.0])))
        with pytest.raises(UDFError):
            UDF(lambda x: 1.0, dimension=1, domain=(np.array([1.0]), np.array([0.0])))

    def test_invalid_dimension(self):
        with pytest.raises(UDFError):
            UDF(lambda x: 1.0, dimension=0)

    def test_as_udf_passthrough(self):
        udf = UDF(lambda x: 1.0, dimension=1)
        assert as_udf(udf) is udf

    def test_as_udf_wraps_callable(self):
        def my_function(x):
            return float(x[0])

        udf = as_udf(my_function, dimension=1)
        assert udf.name == "my_function"
        assert udf(np.array([4.0])) == 4.0

    def test_as_udf_requires_dimension(self):
        with pytest.raises(UDFError):
            as_udf(lambda x: 1.0)


class TestAbsorbCharges:
    def test_credits_external_evaluations(self):
        udf = UDF(lambda x: float(x[0]), dimension=1)
        udf(np.array([1.0]))
        udf.absorb_charges(5, 0.25, 0.125)
        assert udf.call_count == 6
        assert udf.real_time >= 0.25
        assert udf.waited_time >= 0.125

    def test_rejects_negative_charges(self):
        udf = UDF(lambda x: float(x[0]), dimension=1)
        with pytest.raises(UDFError):
            udf.absorb_charges(-1, 0.0)
        with pytest.raises(UDFError):
            udf.absorb_charges(0, -0.5)
        with pytest.raises(UDFError):
            udf.absorb_charges(0, 0.0, -0.5)


class TestInFlightGauges:
    """In-flight tracking under concurrency, resets, and pickling."""

    def test_reset_reseeds_high_water_to_outstanding_count(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        release = threading.Event()
        started = threading.Barrier(4)

        def slow(x):
            started.wait(timeout=5.0)
            release.wait(timeout=5.0)
            return float(x[0])

        udf = UDF(slow, dimension=1)
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = udf.submit_rows(pool, np.arange(3.0).reshape(3, 1))
            started.wait(timeout=5.0)  # all three genuinely in flight
            assert udf.in_flight == 3
            assert udf.max_in_flight == 3
            udf.reset_counters()
            # The outstanding evaluations are the new window's floor.
            assert udf.max_in_flight == 3
            release.set()
            for future in futures:
                future.result()
        assert udf.in_flight == 0
        assert udf.call_count == 3

    def test_threaded_reset_never_leaves_mark_below_outstanding(self):
        """Hammer enter/exit/reset concurrently; the gauge invariants hold.

        Regression test for the reset/high-water seam: a reset racing
        completing evaluations must never leave ``max_in_flight`` below the
        number of evaluations still outstanding, and the gauge must return
        to zero once everything settles.
        """
        import time as _time
        from concurrent.futures import ThreadPoolExecutor

        udf = UDF(lambda x: (_time.sleep(0.001), float(x[0]))[1], dimension=1)
        rows = np.arange(64.0).reshape(64, 1)
        resets_with_outstanding = 0
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = udf.submit_rows(pool, rows)
            for _ in range(50):
                udf.reset_counters()
                # All 64 submissions entered flight before the loop and only
                # *exits* race the reset from here on (no new enters), so
                # the mark can only have been reseeded by a reset and never
                # decreases in between.  The documented invariant is that it
                # can never land below the number still outstanding when it
                # is read after the reset — a reset that raced completions
                # and lost updates would break exactly this.
                outstanding_floor = udf.in_flight
                mark = udf.max_in_flight
                if outstanding_floor:
                    resets_with_outstanding += 1
                assert mark >= outstanding_floor
                _time.sleep(0.0005)
            for future in futures:
                future.result()
        assert udf.in_flight == 0
        assert udf.max_in_flight >= 0
        # The hammer genuinely raced resets against in-flight evaluations.
        assert resets_with_outstanding > 0

    def test_unbalanced_exit_clamps_at_zero(self):
        udf = UDF(lambda x: float(x[0]), dimension=1)
        udf._exit_flight()
        assert udf.in_flight == 0

    def test_pickled_copy_starts_with_zero_flight_gauges(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        release = threading.Event()
        started = threading.Barrier(3)

        def slow(x):
            started.wait(timeout=5.0)
            release.wait(timeout=5.0)
            return float(x[0])

        udf = UDF(slow, dimension=1)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = udf.submit_rows(pool, np.arange(2.0).reshape(2, 1))
            started.wait(timeout=5.0)
            assert udf.in_flight == 2
            # A copy "pickled" mid-flight (the pickle protocol's state
            # round-trip; the black box itself need not be picklable here)
            # must not inherit phantom in-flight evaluations: they will
            # never complete in the copy's process.
            state = dict(udf.__getstate__())
            release.set()
            for future in futures:
                future.result()
        clone = UDF.__new__(UDF)
        clone.__setstate__(state)
        assert clone.in_flight == 0
        assert clone.max_in_flight == 0
        # Charge counters, by contrast, do carry over (none had completed
        # when the copy was taken; the parent charged both afterwards).
        assert clone.call_count == 0
        assert udf.call_count == 2
