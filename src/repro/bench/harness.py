"""Experiment harness: result tables, timed runs and text reporting.

Every experiment function in :mod:`repro.bench` returns an
:class:`ExperimentTable` — a list of homogeneous row dictionaries plus a
title — so that the pytest-benchmark wrappers, the EXPERIMENTS.md generator
and ad-hoc scripts all share one representation and one formatter.  The
plan-sweep experiments time their runs through one helper,
:func:`timed_run`, and compare runs through one identity check,
:func:`outputs_identical`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.engine.executor import UDFExecutionEngine
from repro.engine.plan import ExecutionPlan, installed_retry, is_auto_plan
from repro.exceptions import ReproError
from repro.rng import as_generator
from repro.timing import PhaseTimings
from repro.workloads.generators import input_stream, workload_for_udf

__all__ = [
    "ExperimentTable",
    "PhaseTimings",
    "TimedRun",
    "outputs_identical",
    "print_tables",
    "summarize",
    "timed_run",
]


@dataclass
class ExperimentTable:
    """A titled table of experiment results."""

    #: Experiment identifier, e.g. ``"expt5_eval_time"``.
    experiment_id: str
    #: Paper artifact this table reproduces, e.g. ``"Figure 5(i)"``.
    paper_artifact: str
    #: Human-readable description of what is being measured.
    description: str
    #: Homogeneous result rows.
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append one result row."""
        if self.rows and set(values) != set(self.rows[0]):
            raise ReproError(
                f"row keys {sorted(values)} do not match existing columns "
                f"{sorted(self.rows[0])}"
            )
        self.rows.append(values)

    @property
    def columns(self) -> list[str]:
        """Column names, in first-row order."""
        return list(self.rows[0]) if self.rows else []

    def column(self, name: str) -> list[Any]:
        """All values of one column."""
        if name not in self.columns:
            raise ReproError(f"unknown column {name!r}; available: {self.columns}")
        return [row[name] for row in self.rows]

    def filtered(self, **criteria: Any) -> "ExperimentTable":
        """Rows matching all the given column=value criteria."""
        subset = [
            row for row in self.rows if all(row.get(k) == v for k, v in criteria.items())
        ]
        return ExperimentTable(
            experiment_id=self.experiment_id,
            paper_artifact=self.paper_artifact,
            description=self.description,
            rows=subset,
        )

    def to_text(self, float_format: str = "{:.4g}") -> str:
        """Render the table as aligned monospace text."""
        lines = [f"== {self.experiment_id} — {self.paper_artifact} ==", self.description]
        if not self.rows:
            lines.append("(no rows)")
            return "\n".join(lines)
        columns = self.columns
        formatted_rows = []
        for row in self.rows:
            formatted_rows.append(
                [
                    float_format.format(v) if isinstance(v, float) else str(v)
                    for v in (row[c] for c in columns)
                ]
            )
        widths = [
            max(len(column), *(len(r[i]) for r in formatted_rows))
            for i, column in enumerate(columns)
        ]
        header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
        separator = "  ".join("-" * w for w in widths)
        lines.extend([header, separator])
        for formatted in formatted_rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(formatted, widths)))
        return "\n".join(lines)


def print_tables(tables: Iterable[ExperimentTable]) -> None:
    """Print a sequence of experiment tables, separated by blank lines."""
    for table in tables:
        print(table.to_text())
        print()


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Mean / min / max summary of a metric series (used in several tables)."""
    if len(values) == 0:
        raise ReproError("cannot summarise an empty series")
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(np.mean(arr)),
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
    }


@dataclass
class TimedRun:
    """The fastest of a :func:`timed_run`'s same-seed trials."""

    #: Wall-clock of the plan's resolution and computation, in seconds.
    wall_s: float
    #: ``udf.call_count``: every call the run paid, unconsumed prefetches included.
    udf_calls: int
    #: The per-tuple :class:`~repro.engine.executor.ComputedOutput` list.
    outputs: list
    #: The executor's per-phase timings (``model_refresh`` and friends).
    timings: PhaseTimings
    #: The executor's ``last_wasted_calls`` (0 for a sharded executor).
    wasted_calls: int


def timed_run(
    make_udf: Callable[[], Any],
    plan: Any,
    *,
    n_tuples: int,
    stream_seed: int,
    trials: int = 1,
    **engine_kwargs: Any,
) -> TimedRun:
    """Run ``plan`` on a fresh same-seed stream; keep the fastest of ``trials``.

    Each trial builds a fresh UDF (``make_udf()``) and a fresh
    ``UDFExecutionEngine(**engine_kwargs)``, draws ``n_tuples`` inputs of
    the UDF's workload from ``stream_seed``, and times the plan's
    resolution plus its computation — so every trial starts from the same
    state.  ``plan`` is an :class:`~repro.engine.plan.ExecutionPlan` or
    ``"auto"``; its retry policy is installed around the computation, as
    :meth:`~repro.engine.executor.UDFExecutionEngine.compute_with_plan`
    installs it.
    """

    def trial() -> TimedRun:
        udf = make_udf()
        engine = UDFExecutionEngine(**engine_kwargs)
        dists = list(
            input_stream(workload_for_udf(udf), n_tuples, random_state=as_generator(stream_seed))
        )
        started = time.perf_counter()
        resolved = ExecutionPlan.auto(udf, n_tuples) if is_auto_plan(plan) else plan
        executor = resolved.resolve(engine)
        with installed_retry(udf, resolved):
            outputs = executor.compute_batch(udf, dists)
        return TimedRun(
            wall_s=time.perf_counter() - started,
            udf_calls=udf.call_count,
            outputs=outputs,
            timings=executor.timings,
            # A sharded executor runs no speculation stage of its own.
            wasted_calls=getattr(executor, "last_wasted_calls", 0),
        )

    return min((trial() for _ in range(max(1, trials))), key=lambda run: run.wall_s)


def outputs_identical(a_outputs, b_outputs, *, charges: bool = False) -> bool:
    """Whether two runs produced bit-identical samples and error bounds.

    ``charges`` also compares each tuple's ``udf_calls`` — for runs that
    must charge the same per-tuple UDF cost, not only reach the same values.
    """
    if a_outputs is None or b_outputs is None or len(a_outputs) != len(b_outputs):
        return False
    return all(
        np.array_equal(a.distribution.samples, b.distribution.samples)
        and a.error_bound == b.error_bound
        and (not charges or a.udf_calls == b.udf_calls)
        for a, b in zip(a_outputs, b_outputs)
    )
