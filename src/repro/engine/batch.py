"""The chunk executor: set-at-a-time UDF evaluation over uncertain tuples.

The per-tuple engine (:class:`~repro.engine.executor.UDFExecutionEngine`)
re-enters Python-level loops — training-point retrieval, kernel evaluations,
local Cholesky factorisations, error-bound sweeps — for every tuple.
:class:`BatchExecutor` instead accepts a whole chunk of tuples and runs it
through the one tuple-commit loop (:meth:`OLGAPRO.process_batch
<repro.core.olgapro.OLGAPRO.process_batch>`): the Monte-Carlo input samples
of the whole chunk are drawn up front, GP inference shares one chunk-wide
kernel cache whose first pass stacks as many tuples as fit its row cap
while the model is quiet, and only the tuples whose error bound misses the
budget enter the refinement-window loop.  It is the *only* executor below the shard
wrapper: the plan's ``window`` and ``lookahead`` parameterise the same two
loops (see :class:`BatchExecutor`), they do not select another executor.

Numerical contract: with a deterministic tuning strategy (the default
largest-variance rule) the batched pipeline consumes the shared random
stream in exactly the same order as per-tuple execution — Monte-Carlo
sampling is the only consumer — so under the same seed it produces the same
output distributions and error bounds as calling
:meth:`UDFExecutionEngine.compute` once per tuple.  Tuples carrying a
selection predicate keep per-tuple semantics (the pilot draw of tuple *i*
depends on the drop decision of tuple *i - 1*), so the predicate path
runs tuple by tuple and stays equivalent by construction.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from repro.core.filtering import SelectionPredicate
from repro.core.hybrid import HybridExecutor
from repro.core.mc_baseline import mc_sample_count
from repro.distributions.base import Distribution
from repro.distributions.columns import sample_chunk
from repro.distributions.empirical import EmpiricalDistribution, TruncationResult
from repro.engine.async_exec import AsyncEvaluationDriver
from repro.engine.executor import ComputedOutput, UDFExecutionEngine
from repro.engine.pipeline import SpeculationStage
from repro.engine.transport import make_transport
from repro.exceptions import QueryError, UDFError
from repro.timing import PhaseTimings
from repro.udf.base import UDF

if TYPE_CHECKING:  # plan.py imports this module
    from repro.engine.plan import ExecutionPlan

#: Default chunk size; large enough to amortise the stacked kernel algebra,
#: small enough to keep the stacked sample matrix in cache-friendly territory.
DEFAULT_BATCH_SIZE = 32

T = TypeVar("T")


def online_result_to_output(result) -> ComputedOutput:
    """Convert one OLGAPRO tuple result into the engine's output record."""
    return ComputedOutput(
        distribution=result.distribution,
        error_bound=result.error_bound.epsilon_total,
        existence_probability=1.0,
        dropped=False,
        udf_calls=result.udf_calls,
        charged_time=result.charged_time,
        failed=getattr(result, "quarantined", False),
    )


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


def truncate_columns(
    distributions: Sequence[EmpiricalDistribution], low: float, high: float
) -> list[TruncationResult]:
    """Column-kernel predicate evaluation: truncate a block of ECDFs at once.

    Bit-identical to calling ``dist.truncate(low, high)`` per row: the
    per-row cut points are counts over sorted sample rows (exactly what
    ``searchsorted`` computes), the surviving samples are a contiguous slice
    of an already-sorted row, and the existence probability is the same
    count ratio — integer counts and slices, resting on no BLAS or RNG
    identity.  Rows that are not same-size empirical distributions fall back
    to the scalar call.
    """
    distributions = list(distributions)
    if not distributions:
        return []
    if high < low:
        raise ValueError(f"interval upper bound {high} is below lower bound {low}")
    sizes = {
        dist.size for dist in distributions if isinstance(dist, EmpiricalDistribution)
    }
    uniform = len(sizes) == 1 and all(
        isinstance(dist, EmpiricalDistribution) for dist in distributions
    )
    if not uniform:
        return [dist.truncate(low, high) for dist in distributions]
    block = np.stack([dist._sorted for dist in distributions])
    m = block.shape[1]
    lefts = np.sum(block < low, axis=1)
    rights = np.sum(block <= high, axis=1)
    results: list[TruncationResult] = []
    for row, left, right in zip(block, lefts, rights):
        existence = float((right - left) / m)
        truncated = (
            EmpiricalDistribution._from_sorted(row[left:right].copy())
            if right > left
            else None
        )
        results.append(
            TruncationResult(distribution=truncated, existence_probability=existence)
        )
    return results


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
      — and installs an :class:`~repro.engine.async_exec
      .AsyncEvaluationDriver`, so each refinement window's UDF calls
      overlap (:mod:`repro.engine.async_exec`);
    * ``lookahead`` > 1 attaches a :class:`~repro.engine.pipeline
      .SpeculationStage`, which speculates the next tuples' first bounds
      and prefetches their windows while the current one commits
      (:mod:`repro.engine.pipeline`).  Online filtering is
      tuple-sequential and ``"mc"`` has no refinement loop, so a predicate
      or the ``"mc"`` strategy runs without the stage.

    At window 1 / lookahead 1 no transport session, driver, stage or thread
    exists.  Quarantine, the chunk backstop, tuple-boundary model sync and
    the windowed first pass belong to the loop, so they hold at every
    (window, lookahead).  Phase timings (``sampling`` / ``inference`` /
    ``refinement`` / ``filtering`` / ``speculation``) accumulate on
    :attr:`timings`; the executor stays picklable and reusable because every
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
        #: Refresh prefetch walks to the live model when it outruns their
        #: fence (``merge="shared"`` on an unsharded plan; see
        #: :class:`~repro.engine.pipeline.SpeculationStage`).
        self.shared_refresh = plan.merge == "shared"
        self.timings = PhaseTimings()
        #: Evaluations the last compute call prefetched, prefetched but
        #: never consumed, and its walk fence refreshes (0 at lookahead 1).
        self.last_speculative_calls = 0
        self.last_wasted_calls = 0
        self.last_walk_refreshes = 0

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
        """Predicate (online-filtering) evaluation.

        Online filtering is inherently sequential — each tuple's pilot draw
        and early-drop decision feed the shared random stream — so this
        runs tuple by tuple, preserving exact equivalence with the
        per-tuple path; the window still applies inside each tuple's pilot
        and full refinement loops.
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
        self.last_walk_refreshes = 0
        stage = None
        try:
            if not distributions:
                return []
            # Fail fast on an incompatible UDF/transport pair even where no
            # session opens: a misconfiguration must not become visible
            # only once the user raises the window.
            transport = make_transport(self.plan.transport)
            transport.accepts(udf)
            olgapro = self.engine.olgapro_for(udf)
            staged = self.lookahead > 1 and predicate is None and olgapro is not None
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
                    driver = None
                    if self.window > 1:
                        driver = AsyncEvaluationDriver(carrier, self.window)
                        olgapro.evaluation_driver = driver
                        stack.callback(setattr, olgapro, "evaluation_driver", None)
                    if staged:
                        stage = stack.enter_context(
                            SpeculationStage(
                                olgapro, carrier, driver, self.window, self.lookahead,
                                self.shared_refresh, self.timings,
                            )
                        )
                if predicate is not None:
                    with self.timings.measure("filtering"):
                        return [
                            self.engine.compute_with_predicate(udf, dist, predicate)
                            for dist in distributions
                        ]
                outputs: list[ComputedOutput] = []
                for chunk in iter_batches(distributions, self.batch_size):
                    outputs.extend(self._compute_chunk(udf, chunk, stage))
                return outputs
        finally:
            if stage is not None:
                self.last_speculative_calls = stage.speculative_calls
                self.last_wasted_calls = stage.wasted_calls
                self.last_walk_refreshes = stage.walk_refreshes
            # Whatever ran (including the empty input — a legal batch),
            # report a complete phase record: timing consumers must never
            # see this executor's phase set vary with the input.
            self.timings.ensure("sampling", "inference", "refinement")
            if self.plan.pipeline_lookahead is not None:
                self.timings.ensure("speculation")

    def _compute_chunk(
        self, udf: UDF, chunk: list[Distribution], stage: Optional[SpeculationStage]
    ) -> list[ComputedOutput]:
        try:
            return self._compute_chunk_inner(udf, chunk, stage)
        except UDFError:
            # Backstop for failures the per-tuple quarantine inside OLGAPRO
            # cannot reach (the stacked pilot evaluation of a whole chunk, or
            # the plain-MC path): quarantine the chunk wholesale rather than
            # abort the query.
            if not UDFExecutionEngine._quarantine_enabled(udf):
                raise
            return [UDFExecutionEngine.quarantined_output() for _ in chunk]

    def _compute_chunk_inner(
        self, udf: UDF, chunk: list[Distribution], stage: Optional[SpeculationStage]
    ) -> list[ComputedOutput]:
        strategy = self.engine.strategy
        if strategy == "mc":
            return mc_chunk(
                udf, chunk, self.engine.requirement, self.engine._rng, self.timings
            )
        processor = self.engine._processor_for(udf)
        if isinstance(processor, HybridExecutor) and processor.decide(chunk[0]).method == "mc":
            return mc_chunk(udf, chunk, processor.requirement, processor._rng, self.timings)
        results = self.engine.olgapro_for(udf).process_batch(
            chunk, timings=self.timings, stage=stage
        )
        return [online_result_to_output(result) for result in results]


def mc_chunk(
    udf: UDF,
    chunk: list[Distribution],
    requirement,
    rng: np.random.Generator,
    timings: PhaseTimings,
) -> list[ComputedOutput]:
    """Algorithm 1 over a chunk: stack the input samples, evaluate once."""
    m = mc_sample_count(requirement)
    started = time.perf_counter()
    # Draws in tuple order keep the stream identical to the per-tuple path;
    # stacking afterwards costs one copy.
    stacked_inputs = np.vstack(sample_chunk(chunk, m, rng)[0])
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
