"""Spans recorded from outside the program.

No file under ``src/`` knows about tracing.  :meth:`Tracer.install` wraps the
public callables named in :data:`TARGETS` at run time: a method is rebound on
its class (and on every subclass that overrides it), a module-level function
is rebound in every ``repro.*`` module global that aliases it, so
``from repro.gp.linalg import jittered_cholesky`` call sites are covered too.
:meth:`Tracer.uninstall` puts every original back.

A wrapper does nothing while :attr:`Tracer.enabled` is false, so set-up and
the correctness audit run through the wrappers unrecorded.  While enabled,
each call is timed on its own thread's stack:

* *busy* time of a key is the summed duration of its outermost calls (a
  ``predict`` that calls ``predict`` is counted once),
* *self* time is the duration minus the part covered by wrapped calls made
  inside it on the same thread,
* a non-leaf call becomes a span record ``id, key, layer, start, end,
  parent, thread, trace_id``; a leaf call (kernel, sample, search ...) is
  only added to its parent span's ``leaves`` as count + sum, because one
  record per kernel evaluation would cost more than the evaluation.

Everything stays in memory until :meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class Target:
    """One callable to wrap: where it lives and the metric stem it feeds."""

    module: str
    qualname: str  # "Class.method" or "function"
    key: str  # "<layer>.<operation>"
    leaf: bool = False
    #: Remember the ``"self"`` or the ``"result"`` of every recorded call, so
    #: counters those objects keep (``GaussianProcess.factorization_count``,
    #: an executor's ``last_wasted_calls``) can be read when the run ends.
    keep: str = ""


def layer_of(key: str) -> str:
    """The layer (a module of this repository) a key belongs to."""
    return key.rsplit(".", 1)[0]


def _targets() -> list[Target]:
    def many(module: str, names: Iterable[str], key: str, **kw: Any) -> list[Target]:
        return [Target(module, name, key, **kw) for name in names]

    return [
        Target("repro.distributions.base", "Distribution.sample", "distributions.sample", leaf=True),
        *many("repro.index.rtree",
              ["RTree.search_box", "RTree.search_within_distance", "RTree.nearest"],
              "index.search", leaf=True),
        Target("repro.index.rtree", "RTree.insert", "index.insert", leaf=True),
        Target("repro.gp.kernels", "Kernel.__call__", "gp.kernel", leaf=True),
        *many("repro.gp.linalg", ["jittered_cholesky", "stacked_jittered_cholesky"],
              "gp.cholesky", leaf=True),
        *many("repro.gp.linalg", ["block_inverse_update", "block_inverse_update_multi"],
              "gp.inverse_update", leaf=True),
        Target("repro.gp.regression", "GaussianProcess.predict", "gp.predict"),
        *many("repro.gp.regression", ["GaussianProcess.add_point", "GaussianProcess.add_points"],
              "gp.add_points", keep="self"),
        Target("repro.gp.regression", "GaussianProcess.fit", "gp.fit", keep="self"),
        Target("repro.gp.training", "fit_hyperparameters", "gp.fit"),
        *many("repro.core.local_inference",
              ["LocalInferenceEngine.predict", "LocalInferenceEngine.predict_multi",
               "LocalInferenceEngine.predict_cached", "LocalInferenceEngine.predict_cached_block",
               "LocalInferenceEngine.select_points"],
              "core.local_inference.predict"),
        *many("repro.core.local_inference", ["BatchKernelCache.sync", "BatchKernelCache.rows"],
              "core.local_inference.cache_sync", leaf=True),
        Target("repro.core.local_inference", "BatchKernelCache.local_inverse",
               "core.local_inference.local_inverse", leaf=True),
        *many("repro.core.error_bounds", ["gp_discrepancy_bound", "gp_discrepancy_bound_block"],
              "core.error_bounds.bound", leaf=True),
        *many("repro.core.confidence_bands", ["band_z_value", "band_z_values"],
              "core.confidence_bands.z", leaf=True),
        *many("repro.core.filtering", ["filtering_decision", "upper_bound_decision"],
              "core.filtering.decision", leaf=True),
        *many("repro.core.olgapro",
              ["OLGAPRO.process", "OLGAPRO.process_batch", "OLGAPRO.begin_chunk",
               "OLGAPRO.process_with_filter"],
              "core.olgapro.process"),
        *many("repro.core.emulator",
              ["GPEmulator.add_training_point", "GPEmulator.add_training_points"],
              "core.emulator.add_points"),
        Target("repro.core.emulator", "GPEmulator.absorb_observations", "core.emulator.absorb"),
        *many("repro.core.emulator", ["GPEmulator.retrain", "GPEmulator.train_initial"],
              "core.emulator.retrain"),
        Target("repro.core.shared_model", "SharedEmulatorStore.exchange",
               "core.shared_model.exchange"),
        *many("repro.udf.base", ["UDF.evaluate_batch", "UDF.evaluate_many", "UDF.submit_rows"],
              "udf.evaluate"),
        Target("repro.engine.transport", "EvaluationTransport.submit_rows",
               "engine.transport.submit"),
        Target("repro.engine.transport", "EvaluationTransport.drain", "engine.transport.wait"),
        *many("repro.engine.transport", ["EvaluationTransport.open", "EvaluationTransport.close"],
              "engine.transport.open_close"),
        *[
            Target(module, f"{cls}.{method}", key)
            for module, cls, key in [
                ("repro.engine.batch", "BatchExecutor", "engine.batch.run"),
                ("repro.engine.async_exec", "AsyncRefinementExecutor", "engine.async_exec.run"),
                ("repro.engine.pipeline", "PipelinedExecutor", "engine.pipeline.run"),
                ("repro.engine.parallel", "ParallelExecutor", "engine.parallel.run"),
            ]
            for method in ("compute_batch", "compute_batch_with_predicate")
        ],
        Target("repro.engine.plan", "ExecutionPlan.resolve", "engine.plan.resolve", keep="result"),
        Target("repro.engine.query", "Query.run", "engine.operators.query_run"),
        Target("repro.engine.executor", "UDFExecutionEngine.compute_with_plan",
               "engine.executor.compute_with_plan"),
        Target("repro.engine.session", "Session.submit", "engine.service.submit"),
    ]


TARGETS: list[Target] = _targets()


class _ThreadState:
    """What one thread has recorded; merged by the tracer at the end."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: list[list] = []
        #: key -> [calls, busy seconds (outermost calls only), self seconds]
        self.totals: dict[str, list] = {}
        self.depth: dict[str, int] = {}
        self.spans: list[tuple] = []


class Tracer:
    """Installs the wrappers and holds what they record."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        #: Trace id (workload/repetition) given to spans that start a thread's
        #: stack, unless their first argument was given one with :meth:`tag`.
        self.trace_id = ""
        self.kept: dict[str, dict[int, Any]] = {}
        self._tags: dict[int, str] = {}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------------
    def tag(self, obj: Any, trace_id: str) -> None:
        """Root spans whose first argument is ``obj`` carry ``trace_id``.

        Served queries run on pool threads the harness never sees; tagging
        each query's engine is how their spans find their query.
        """
        self._tags[id(obj)] = trace_id

    def _root_trace_id(self, first: Any) -> str:
        """Trace id of a span that starts a thread's stack.

        Operators hand the pool an executor, not the engine, so an untagged
        first argument is also looked up through its ``engine`` attribute.
        """
        tags = self._tags
        return (
            tags.get(id(first))
            or tags.get(id(getattr(first, "engine", None)))
            or self.trace_id
        )

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, fn: Callable, key: str, leaf: bool = False, keep: str = "") -> Callable:
        """``fn`` with its calls recorded under ``key`` while tracing is enabled."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
                trace_id = parent[4]
            else:
                parent = None
                trace_id = tracer._root_trace_id(args[0] if args else None)
            depth = state.depth.get(key, 0)
            state.depth[key] = depth + 1
            # frame: key, start, seconds covered by children, span id, trace id, leaves
            frame = [key, 0.0, 0.0, 0 if leaf else next(tracer._ids), trace_id, None]
            stack.append(frame)
            frame[1] = tracer.clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                state.depth[key] = depth
                duration = end - frame[1]
                total = state.totals.get(key)
                if total is None:
                    total = state.totals[key] = [0, 0.0, 0.0]
                total[0] += 1
                if depth == 0:
                    total[1] += duration
                total[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if leaf:
                    if parent is not None:
                        leaves = parent[5]
                        if leaves is None:
                            leaves = parent[5] = {}
                        entry = leaves.get(key)
                        if entry is None:
                            leaves[key] = [1, duration]
                        else:
                            entry[0] += 1
                            entry[1] += duration
                else:
                    state.spans.append((
                        frame[3], key, frame[1], end,
                        parent[3] if parent is not None else 0,
                        state.name, trace_id, frame[5],
                    ))
                kept = args[0] if keep == "self" and args else result if keep == "result" else None
                if kept is not None:
                    tracer.kept.setdefault(key, {})[id(kept)] = kept

        return functools.update_wrapper(wrapper, fn)  # sets __wrapped__

    # -- install / uninstall ------------------------------------------------------
    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        """Rebind every target to its wrapper (import the program first)."""
        wrapped: dict[int, Callable] = {}
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                self._install_method(getattr(module, owner_name), attr, target, wrapped)
            else:
                self._install_function(getattr(module, attr), target, wrapped)

    def _wrapper_for(self, fn: Callable, target: Target, wrapped: dict[int, Callable]) -> Callable:
        wrapper = wrapped.get(id(fn))
        if wrapper is None:
            wrapper = wrapped[id(fn)] = self.wrap(
                fn, target.key, leaf=target.leaf, keep=target.keep
            )
        return wrapper

    def _install_method(self, cls: type, attr: str, target: Target,
                        wrapped: dict[int, Callable]) -> None:
        classes, seen = [cls], {cls}
        for klass in classes:  # grows while iterating: the whole subclass tree
            for sub in klass.__subclasses__():
                if sub not in seen:
                    seen.add(sub)
                    classes.append(sub)
        for klass in classes:
            fn = klass.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            if not inspect.isfunction(fn):
                if hasattr(fn, "__wrapped__"):
                    continue  # already wrapped through an aliasing class
                raise TypeError(f"{klass.__name__}.{attr} is not a plain method")
            setattr(klass, attr, self._wrapper_for(fn, target, wrapped))
            self._patches.append((klass, attr, fn))

    def _install_function(self, fn: Callable, target: Target,
                          wrapped: dict[int, Callable]) -> None:
        wrapper = self._wrapper_for(fn, target, wrapped)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for global_name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, global_name, wrapper)
                    self._patches.append((module, global_name, fn))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per key: ``calls``, ``busy`` and ``self`` seconds, summed over threads."""
        merged: dict[str, dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, busy, self_s) in state.totals.items():
                entry = merged.setdefault(key, {"calls": 0, "busy": 0.0, "self": 0.0})
                entry["calls"] += calls
                entry["busy"] += busy
                entry["self"] += self_s
        return merged

    def spans(self) -> list[dict]:
        """Every span record, as dictionaries, in order of start time."""
        with self._lock:
            states = list(self._states)
        records = [
            {
                "id": span_id, "name": key, "layer": layer_of(key), "start": start,
                "end": end, "parent": parent, "thread": thread, "trace_id": trace_id,
                "leaves": {k: {"count": c, "sum_s": s} for k, (c, s) in (leaves or {}).items()},
            }
            for state in states
            for span_id, key, start, end, parent, thread, trace_id, leaves in state.spans
        ]
        records.sort(key=lambda record: record["start"])
        return records

    def write_jsonl(self, path: str) -> None:
        """One span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans():
                handle.write(json.dumps(record) + "\n")


def repro_bindings() -> dict[tuple[str, str], int]:
    """Identity of every ``repro.*`` module global and class attribute.

    Two snapshots compare equal exactly when install + uninstall left the
    program as it found it.
    """
    snapshot: dict[tuple[str, str], int] = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for global_name, value in list(vars(module).items()):
            snapshot[(name, global_name)] = id(value)
            if inspect.isclass(value) and value.__module__ == name:
                for attr, member in list(vars(value).items()):
                    snapshot[(f"{name}.{global_name}", attr)] = id(member)
    return snapshot
