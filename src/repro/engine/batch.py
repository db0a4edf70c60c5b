"""The chunk executor: set-at-a-time UDF evaluation over uncertain tuples.

:class:`BatchExecutor` accepts a chunk of tuples and runs it through the
one tuple-commit loop (:meth:`OLGAPRO.process_batch
<repro.core.olgapro.OLGAPRO.process_batch>`): each tuple draws its
Monte-Carlo input samples up front, in tuple order, then takes the one
per-tuple inference step, and only the tuples whose error bound misses
the budget enter the refinement-window loop.  What a chunk shares is the
per-call setup, the transport session, the lookahead prefetch stage and,
under Monte Carlo, one ``evaluate_batch`` call.  It is the *only* executor below
the shard wrapper: the all-default plan runs it at a chunk size of one,
and the plan's ``window`` and ``lookahead`` parameterise the same two
loops (see :class:`BatchExecutor`), they do not select another executor.

Numerical contract: with a deterministic tuning strategy (the default
largest-variance rule) every chunk size consumes the shared random
stream in exactly the same order — Monte-Carlo sampling is the only
consumer — so under the same seed it produces the same output
distributions and error bounds as calling
:meth:`UDFExecutionEngine.compute` once per tuple.  A selection predicate
runs through the same chunks: online filtering is the last step of each
tuple's commit and only reads the envelope the tuple committed, so a
predicate query is the apply query plus a drop test — same draws, same
model, and a kept tuple's output is bitwise the apply output.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from repro.core.filtering import SelectionPredicate
from repro.core.mc_baseline import mc_sample_count
from repro.distributions.base import Distribution
from repro.distributions.empirical import EmpiricalDistribution
from repro.engine.async_exec import AsyncEvaluationDriver
from repro.engine.executor import ComputedOutput, UDFExecutionEngine, online_result_to_output
from repro.engine.pipeline import SpeculationStage
from repro.engine.transport import TRANSPORTS
from repro.exceptions import QueryError, UDFError
from repro.timing import PhaseTimings
from repro.udf.base import UDF
from repro.udf.retry import quarantine_enabled

if TYPE_CHECKING:  # plan.py imports this module
    from repro.engine.plan import ExecutionPlan

#: Default chunk size under any overlap or shard knob: large enough to
#: amortise the per-call setup and give the lookahead stage tuples to
#: prefetch for, small enough to keep the sample block cache-friendly.
DEFAULT_BATCH_SIZE = 32

T = TypeVar("T")


def iter_batches(rows: Iterable[T], batch_size: int) -> Iterator[list[T]]:
    """Yield consecutive chunks of at most ``batch_size`` items."""
    if batch_size < 1:
        raise QueryError(f"batch_size must be positive, got {batch_size}")
    chunk: list[T] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= batch_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class BatchExecutor:
    """The one chunk executor: runs the OLGAPRO loops at the plan's (window, lookahead).

    Wraps an existing :class:`UDFExecutionEngine` — it shares the engine's
    per-UDF processors (the GP model warmed up by one path is reused by the
    other) and its random stream — and pushes chunks of ``batch_size``
    tuples through :meth:`OLGAPRO.process_batch
    <repro.core.olgapro.OLGAPRO.process_batch>`.  Two optional stages
    parameterise that one loop; 1 is the degenerate, free value of each:

    * ``window`` (:attr:`ExecutionPlan.window
      <repro.engine.plan.ExecutionPlan.window>`) > 1 opens the plan's
      evaluation transport for the computation — closed on every exit path
      — so each refinement window's UDF calls overlap
      (:mod:`repro.engine.async_exec`);
    * ``lookahead`` > 1 opens it too and attaches a
      :class:`~repro.engine.pipeline.SpeculationStage`, whose walks
      prefetch the next tuples' refinement windows — as deep as the
      recently committed tuples refined — while the current one commits,
      and hands the loop nothing but those values
      (:mod:`repro.engine.pipeline`).  ``"mc"`` has no refinement loop, so
      it runs without the stage.

    Whenever a transport session opens, an :class:`~repro.engine
    .async_exec.AsyncEvaluationDriver` at the plan's window is installed on
    the processor, and every UDF value OLGAPRO needs during the session —
    the initial design, each single refinement point, each window — comes
    through it.  At window 1 / lookahead 1 no transport session, driver,
    stage or thread exists: every value is evaluated inline.  Quarantine,
    the chunk backstop, tuple-boundary model sync, the first pass and a
    predicate's drop test belong to the loop, so they hold at every
    (window, lookahead).  Phase timings (``sampling`` /
    ``inference`` / ``refinement`` / ``filtering`` — the drop tests alone,
    or Monte Carlo's sequential filter) accumulate on :attr:`timings`; the executor stays picklable and reusable because every
    live resource is scoped to one compute call.

    Raises
    ------
    QueryError
        From a compute call, on a UDF the transport cannot carry or when a
        driver is already installed on the target processor (nested
        overlapped execution).
    """

    def __init__(self, engine: UDFExecutionEngine, plan: "ExecutionPlan"):
        """Bind the engine and read the chunk knobs off the (validated) plan."""
        self.engine = engine
        self.plan = plan
        self.batch_size = plan.chunk_size
        self.window = plan.window
        self.lookahead = plan.lookahead
        self.timings = PhaseTimings()
        #: Evaluations the last compute call prefetched, and prefetched but
        #: never consumed (0 at lookahead 1).
        self.last_speculative_calls = 0
        self.last_wasted_calls = 0

    # -- public API ---------------------------------------------------------------
    def compute_batch(
        self, udf: UDF, input_distributions: Sequence[Distribution]
    ) -> list[ComputedOutput]:
        """Evaluate ``udf`` on every input tuple, chunked by ``batch_size``.

        Returns one :class:`~repro.engine.executor.ComputedOutput` per input
        distribution, in input order.
        """
        return self._run(udf, list(input_distributions), predicate=None)

    def compute_batch_with_predicate(
        self,
        udf: UDF,
        input_distributions: Sequence[Distribution],
        predicate: SelectionPredicate,
    ) -> list[ComputedOutput]:
        """Predicate (online-filtering) evaluation through the same chunks.

        Each GP tuple gets exactly :meth:`compute_batch`'s treatment at the
        plan's (window, lookahead) and is then tested on the envelope it
        committed (§5.5): kept tuples are bitwise :meth:`compute_batch`'s
        outputs, dropped ones carry ``ρ̂`` and no distribution.  Monte
        Carlo keeps its per-tuple sequential filter.
        """
        return self._run(udf, list(input_distributions), predicate=predicate)

    # -- internals ----------------------------------------------------------------
    def _run(
        self,
        udf: UDF,
        distributions: list[Distribution],
        predicate: Optional[SelectionPredicate],
    ) -> list[ComputedOutput]:
        """Open what the plan's (window, lookahead) need, run the chunks, close."""
        self.last_speculative_calls = 0
        self.last_wasted_calls = 0
        stage = None
        try:
            if not distributions:
                return []
            # Fail fast on an incompatible UDF/transport pair even where no
            # session opens: a misconfiguration must not become visible
            # only once the user raises the window.
            transport = TRANSPORTS[self.plan.transport]()
            transport.accepts(udf)
            olgapro = self.engine.olgapro_for(udf)
            staged = self.lookahead > 1 and olgapro is not None
            with ExitStack() as stack:
                if olgapro is not None and (self.window > 1 or staged):
                    if olgapro.evaluation_driver is not None:
                        raise QueryError(
                            f"processor for UDF {udf.name!r} already has an evaluation "
                            "driver installed (nested overlapped execution is not supported)"
                        )
                    workers = (
                        SpeculationStage.eval_workers(self.window, self.lookahead)
                        if staged
                        else self.window
                    )
                    carrier = stack.enter_context(transport.session(workers, label=udf.name))
                    driver = AsyncEvaluationDriver(carrier, self.window)
                    olgapro.evaluation_driver = driver
                    stack.callback(setattr, olgapro, "evaluation_driver", None)
                    if staged:
                        stage = stack.enter_context(
                            SpeculationStage(olgapro, driver, self.lookahead)
                        )
                outputs: list[ComputedOutput] = []
                for chunk in iter_batches(distributions, self.batch_size):
                    outputs.extend(self._compute_chunk(udf, chunk, stage, predicate))
                return outputs
        finally:
            if stage is not None:
                self.last_speculative_calls = stage.speculative_calls
                self.last_wasted_calls = stage.wasted_calls
            # Whatever ran (including the empty input — a legal batch),
            # report a complete phase record: timing consumers must never
            # see this executor's phase set vary with the input.
            self.timings.ensure("sampling", "inference", "refinement")
            if predicate is not None:
                self.timings.ensure("filtering")

    def _compute_chunk(
        self,
        udf: UDF,
        chunk: list[Distribution],
        stage: Optional[SpeculationStage],
        predicate: Optional[SelectionPredicate],
    ) -> list[ComputedOutput]:
        try:
            return self._compute_chunk_inner(udf, chunk, stage, predicate)
        except UDFError:
            # Backstop for failures the per-tuple quarantine inside OLGAPRO
            # cannot reach (the chunk's initial design, or the plain-MC
            # path): quarantine the chunk wholesale rather than
            # abort the query.
            if not quarantine_enabled(udf):
                raise
            return [UDFExecutionEngine.quarantined_output() for _ in chunk]

    def _compute_chunk_inner(
        self,
        udf: UDF,
        chunk: list[Distribution],
        stage: Optional[SpeculationStage],
        predicate: Optional[SelectionPredicate],
    ) -> list[ComputedOutput]:
        engine = self.engine
        if engine._mc_decides(udf, chunk[0]):
            if predicate is None:
                return mc_chunk(udf, chunk, engine.requirement, engine._rng, self.timings)
            with self.timings.measure("filtering"):
                return [engine._mc_filter(udf, dist, predicate) for dist in chunk]
        results = engine.olgapro_for(udf).process_batch(
            chunk, timings=self.timings, stage=stage, predicate=predicate
        )
        return [online_result_to_output(result, predicate) for result in results]


def mc_chunk(
    udf: UDF,
    chunk: list[Distribution],
    requirement,
    rng: np.random.Generator,
    timings: PhaseTimings,
) -> list[ComputedOutput]:
    """Algorithm 1 over a chunk: each tuple draws its samples, one ``evaluate_batch``.

    Draws run per tuple in tuple order, so the stream advances exactly as on
    the per-tuple path; the chunk shares only the UDF call on all its
    samples.
    """
    m = mc_sample_count(requirement)
    started = time.perf_counter()
    stacked_inputs = np.vstack([dist.sample(m, random_state=rng) for dist in chunk])
    timings.add("sampling", time.perf_counter() - started)

    charged_before = udf.charged_time
    started = time.perf_counter()
    outputs = udf.evaluate_batch(stacked_inputs)
    timings.add("inference", time.perf_counter() - started)
    charged_share = (udf.charged_time - charged_before) / len(chunk)

    results: list[ComputedOutput] = []
    for i in range(len(chunk)):
        results.append(
            ComputedOutput(
                distribution=EmpiricalDistribution(outputs[i * m : (i + 1) * m]),
                error_bound=requirement.epsilon,
                existence_probability=1.0,
                dropped=False,
                udf_calls=m,
                charged_time=charged_share,
            )
        )
    return results
