"""Batched query execution: set-at-a-time UDF evaluation over uncertain tuples.

The per-tuple engine (:class:`~repro.engine.executor.UDFExecutionEngine`)
re-enters Python-level loops — training-point retrieval, kernel evaluations,
local Cholesky factorisations, error-bound sweeps — for every tuple.
:class:`BatchExecutor` instead accepts a whole chunk of tuples, draws the
Monte-Carlo input samples for all of them up front, runs GP inference over
the stacked samples in one pass (see
:meth:`~repro.core.local_inference.LocalInferenceEngine.predict_multi`), and
only falls back to the per-tuple OLGAPRO refinement loop for the tuples
whose combined error bound misses the budget.

Numerical contract: with a deterministic tuning strategy (the default
largest-variance rule) the batched pipeline consumes the shared random
stream in exactly the same order as per-tuple execution — Monte-Carlo
sampling is the only consumer — so under the same seed it produces the same
output distributions and error bounds as calling
:meth:`UDFExecutionEngine.compute` once per tuple.  Tuples carrying a
selection predicate keep per-tuple semantics (the pilot draw of tuple *i*
depends on the drop decision of tuple *i - 1*), so the predicate path
delegates tuple by tuple and stays equivalent by construction.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.core.filtering import SelectionPredicate
from repro.core.hybrid import HybridExecutor
from repro.core.mc_baseline import mc_sample_count
from repro.distributions.base import Distribution
from repro.distributions.columns import attempt_encode, sample_stacked, stacking_supported
from repro.distributions.empirical import EmpiricalDistribution, TruncationResult
from repro.engine.executor import ComputedOutput, UDFExecutionEngine
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
    """Convert one OLGAPRO tuple result into the engine's output record.

    Shared by every batch-level executor that drives OLGAPRO directly (the
    batched pipeline here, the cross-tuple pipeline scheduler in
    :mod:`repro.engine.pipeline`), so the mapping from refinement results to
    :class:`~repro.engine.executor.ComputedOutput` lives in one place.
    """
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
    count ratio.  Rows that are not same-size empirical distributions fall
    back to the scalar call.
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
    if not (uniform and stacking_supported()):
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
    """Evaluates UDFs on chunks of uncertain tuples through one shared engine.

    The executor wraps an existing :class:`UDFExecutionEngine` — it shares
    the engine's per-UDF processors (the GP model warmed up by one path is
    reused by the other) and its random stream.  Phase timings (``sampling``
    / ``inference`` / ``refinement``) accumulate on :attr:`timings`.
    """

    def __init__(self, engine: UDFExecutionEngine, plan: "ExecutionPlan"):
        """Bind the engine; ``plan`` supplies ``batch_size`` and ``storage``."""
        self.engine = engine
        self.plan = plan
        self.batch_size = plan.chunk_size
        #: Whether chunks run through the columnar hot paths (stacked MC
        #: draws, column-armed kernel cache, batched envelope sweeps).
        #: Gated bit-identical to the tuple store under the same seed.
        self.columnar = plan.storage == "columnar"
        self.timings = PhaseTimings()

    # -- evaluation without a predicate ------------------------------------------------
    def compute_batch(
        self, udf: UDF, input_distributions: Sequence[Distribution]
    ) -> list[ComputedOutput]:
        """Evaluate ``udf`` on every input tuple, chunked by ``batch_size``."""
        outputs: list[ComputedOutput] = []
        for chunk in iter_batches(input_distributions, self.batch_size):
            outputs.extend(self._compute_chunk(udf, chunk))
        if not outputs:
            # A zero-length input (an empty relation, or an all-empty column
            # block) is a legal batch: report explicit zero phases rather
            # than an absent report.
            self.timings.ensure("sampling", "inference", "refinement")
        return outputs

    # -- evaluation with a selection predicate ------------------------------------------
    def compute_batch_with_predicate(
        self,
        udf: UDF,
        input_distributions: Sequence[Distribution],
        predicate: SelectionPredicate,
    ) -> list[ComputedOutput]:
        """Predicate evaluation for a chunk of tuples.

        Online filtering is inherently sequential — each tuple's pilot draw
        and early-drop decision feed the shared random stream — so this
        delegates tuple by tuple, preserving exact equivalence with the
        per-tuple path while keeping the batch-level API uniform.
        """
        with self.timings.measure("filtering"):
            return [
                self.engine.compute_with_predicate(udf, dist, predicate)
                for dist in input_distributions
            ]

    # -- internals ------------------------------------------------------------------------
    def _compute_chunk(self, udf: UDF, chunk: Sequence[Distribution]) -> list[ComputedOutput]:
        chunk = list(chunk)
        if not chunk:
            return []
        try:
            return self._compute_chunk_inner(udf, chunk)
        except UDFError:
            # Backstop for failures the per-tuple quarantine inside OLGAPRO
            # cannot reach (the stacked pilot evaluation of a whole chunk, or
            # the plain-MC path): quarantine the chunk wholesale rather than
            # abort the query.
            if not UDFExecutionEngine._quarantine_enabled(udf):
                raise
            return [UDFExecutionEngine.quarantined_output() for _ in chunk]

    def _compute_chunk_inner(
        self, udf: UDF, chunk: list[Distribution]
    ) -> list[ComputedOutput]:
        strategy = self.engine.strategy
        if strategy == "mc":
            return mc_chunk(
                udf, chunk, self.engine.requirement, self.engine._rng,
                self.timings, self.columnar,
            )
        processor = self.engine._processor_for(udf)
        if isinstance(processor, HybridExecutor):
            decision = processor.decide(chunk[0])
            if decision.method == "mc":
                return mc_chunk(
                    udf, chunk, processor.requirement, processor._rng,
                    self.timings, self.columnar,
                )
            processor = processor._olgapro
        results = processor.process_batch(chunk, timings=self.timings, columnar=self.columnar)
        return [online_result_to_output(result) for result in results]


def mc_chunk(
    udf: UDF,
    chunk: list[Distribution],
    requirement,
    rng: np.random.Generator,
    timings: PhaseTimings,
    columnar: bool,
) -> list[ComputedOutput]:
    """Algorithm 1 over a chunk: stack the input samples, evaluate once."""
    m = mc_sample_count(requirement)
    started = time.perf_counter()
    column = None
    if columnar and stacking_supported():
        column = attempt_encode(chunk)
    if column is not None:
        # Columnar fast path: one stacked generator call fills the whole
        # (n, m) block in the per-tuple draw order, so the shared stream
        # advances identically and the stacked input is bit-identical.
        stacked_inputs = sample_stacked(column, m, rng).reshape(len(chunk) * m, -1)
    else:
        # Per-tuple draws in tuple order keep the stream identical to the
        # per-tuple path; stacking afterwards costs one copy.
        inputs = [dist.sample(m, random_state=rng) for dist in chunk]
        stacked_inputs = np.vstack(inputs)
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
