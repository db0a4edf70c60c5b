"""Span arithmetic on synthetic calls, and install/uninstall hygiene."""

import threading

from perfbench.tracing import TARGETS, Tracer, repro_bindings


class FakeClock:
    """One clock per thread, advanced only by the code under test."""

    def __init__(self):
        self.times = {}

    def __call__(self):
        return self.times.get(threading.get_ident(), 0.0)

    def advance(self, seconds):
        self.times[threading.get_ident()] = self() + seconds


def build():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap(lambda: clock.advance(1.0), "x.leaf", leaf=True)

    def inner_body():
        clock.advance(2.0)
        leaf()
        leaf()

    inner = tracer.wrap(inner_body, "x.inner")

    def outer_body():
        clock.advance(3.0)
        inner()
        clock.advance(4.0)

    outer = tracer.wrap(outer_body, "x.outer")
    return clock, tracer, outer


def test_disabled_tracer_records_nothing():
    _, tracer, outer = build()
    outer()
    assert tracer.totals() == {} and tracer.spans() == []


def test_self_time_is_duration_minus_children_on_the_same_thread():
    _, tracer, outer = build()
    tracer.enabled = True
    tracer.trace_id = "w/a0"
    outer()
    totals = tracer.totals()
    assert totals["x.outer"] == {"calls": 1, "busy": 11.0, "self": 7.0}
    assert totals["x.inner"] == {"calls": 1, "busy": 4.0, "self": 2.0}
    assert totals["x.leaf"] == {"calls": 2, "busy": 2.0, "self": 2.0}
    spans = {span["name"]: span for span in tracer.spans()}
    assert set(spans) == {"x.outer", "x.inner"}  # leaves are aggregated, not recorded
    assert spans["x.inner"]["parent"] == spans["x.outer"]["id"]
    assert spans["x.outer"]["parent"] == 0
    assert spans["x.inner"]["leaves"] == {"x.leaf": {"count": 2, "sum_s": 2.0}}
    assert spans["x.inner"]["layer"] == "x"
    assert {span["trace_id"] for span in spans.values()} == {"w/a0"}
    assert spans["x.outer"]["end"] - spans["x.outer"]["start"] == 11.0


def test_busy_counts_a_recursive_call_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def body(depth):
        clock.advance(1.0)
        if depth:
            recurse(depth - 1)

    recurse = tracer.wrap(body, "x.recurse")
    tracer.enabled = True
    recurse(2)
    assert tracer.totals()["x.recurse"] == {"calls": 3, "busy": 3.0, "self": 3.0}


def test_threads_keep_separate_stacks_and_sum_in_totals():
    _, tracer, outer = build()
    tracer.enabled = True
    spawned = []

    def outer_then_thread():
        outer()
        thread = threading.Thread(target=outer, name="second")
        thread.start()
        thread.join(timeout=10)
        spawned.append(thread.is_alive())

    root = tracer.wrap(outer_then_thread, "x.root")
    root()
    assert spawned == [False]
    totals = tracer.totals()
    assert totals["x.outer"]["busy"] == 22.0 and totals["x.outer"]["self"] == 14.0
    # The thread's clock is its own, so none of its 11 s is a child of root.
    assert totals["x.root"]["self"] == 0.0
    by_thread = {}
    for span in tracer.spans():
        by_thread.setdefault(span["thread"], []).append(span)
    assert [s["parent"] for s in by_thread["second"] if s["name"] == "x.outer"] == [0]


def test_tagged_first_argument_names_the_root_trace():
    tracer = Tracer(clock=FakeClock())

    class Engine:
        pass

    class Executor:
        def __init__(self, engine):
            self.engine = engine

    engine = Engine()
    work = tracer.wrap(lambda first: None, "x.work")
    tracer.enabled = True
    tracer.trace_id = "fallback"
    tracer.tag(engine, "query-7")
    work(engine)
    work(Executor(engine))
    work(object())
    assert [span["trace_id"] for span in tracer.spans()] == ["query-7", "query-7", "fallback"]


def test_install_then_uninstall_leaves_every_repro_global_identical():
    import repro.bench  # noqa: F401  (modules that alias the wrapped functions)
    import repro.engine  # noqa: F401

    before = repro_bindings()
    tracer = Tracer()
    tracer.install()
    during = repro_bindings()
    tracer.uninstall()
    assert repro_bindings() == before
    changed = {key for key in before if before[key] != during[key]}
    assert len(changed) >= len(TARGETS)
    # from-imports of a wrapped function were rebound too, not only its home module
    assert ("repro.core.local_inference", "jittered_cholesky") in changed
    assert ("repro.distributions.continuous.Gaussian", "sample") in changed


def test_installed_wrappers_record_real_calls_and_keep_results():
    import numpy as np

    from repro.gp.kernels import make_kernel

    tracer = Tracer()
    tracer.install()
    try:
        kernel = make_kernel("squared_exponential")
        X = np.zeros((3, 2))
        untraced = kernel(X, X)
        tracer.enabled = True
        traced = kernel(X, X)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert np.array_equal(untraced, traced)
    assert tracer.totals()["gp.kernel"]["calls"] == 1
