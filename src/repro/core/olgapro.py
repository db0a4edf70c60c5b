"""OLGAPRO — the complete online GP algorithm (Algorithm 5, §5.4).

For every uncertain input tuple the algorithm:

1. draws the number of Monte-Carlo input samples dictated by the sampling
   share of the error budget,
2. runs (local) GP inference at those samples,
3. computes the λ-discrepancy (or KS) error bound of the GP modelling error
   using a simultaneous confidence band,
4. while the bound exceeds the GP share of the budget, evaluates the real
   UDF at the sample chosen by the online-tuning strategy and absorbs the
   new training point incrementally (or, at a refinement *window* > 1, at the
   top-k highest-variance samples at once through blocked inverse updates
   with snapshot-based rollback — see :meth:`OLGAPRO._tune_until_bounded`),
5. once the tuple is finished, consults the retraining policy and, when it
   fires, refits the kernel hyperparameters and re-runs inference.

The training data, the GP and the hyperparameters persist
across tuples — that is what makes the algorithm online: the model warms up
on the first tuples and afterwards rarely needs to call the UDF at all.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import (
    DEFAULT_BAND_ALPHA,
    DEFAULT_GAMMA_FRACTION,
    DEFAULT_LAMBDA_FRACTION,
    DEFAULT_MAX_POINTS_PER_TUPLE,
    DEFAULT_MAX_TRAINING_POINTS,
    DEFAULT_MC_FRACTION,
)
from repro.core.accuracy import AccuracyRequirement, ErrorBudget
from repro.core.confidence_bands import BandMethod, band_z_value, band_z_values
from repro.core.emulator import GPEmulator
from repro.core.error_bounds import (
    CombinedErrorBound,
    EnvelopeOutputs,
    build_envelope_outputs,
    combine_bounds,
    gp_discrepancy_bound,
    gp_discrepancy_bound_block,
    gp_ks_bound,
    interval_probability_bounds,
)
from repro.core.filtering import FilterDecision, SelectionPredicate, upper_bound_decision
from repro.core.local_inference import (
    BatchKernelCache,
    LocalInferenceEngine,
    global_inference,
    global_inference_cached,
    global_inference_cached_block,
)
from repro.core.online_tuning import LargestVarianceStrategy, TuningStrategy
from repro.core.retraining import RetrainingPolicy, ThresholdRetrain
from repro.distributions.base import Distribution
from repro.distributions.columns import sample_chunk
from repro.distributions.empirical import EmpiricalDistribution
from repro.exceptions import GPError, UDFError
from repro.gp.kernels import Kernel
from repro.index.bounding_box import BoundingBox
from repro.rng import RandomState, as_generator
from repro.udf.base import UDF


@dataclass(frozen=True)
class OnlineTupleResult:
    """Result of processing one uncertain input tuple with OLGAPRO."""

    #: Output distribution ``Ŷ'`` returned to the user.
    distribution: EmpiricalDistribution
    #: The empirical envelope variables behind the error bound.
    envelope: EnvelopeOutputs
    #: Combined GP + MC error bound (Theorem 4.1).
    error_bound: CombinedErrorBound
    #: Whether the GP error bound met its budget within the point cap.
    converged: bool
    #: Training points added while processing this tuple.
    points_added: int
    #: Total training points in the model after the tuple.
    n_training: int
    #: Monte-Carlo input samples used.
    n_samples: int
    #: UDF calls charged to this tuple.
    udf_calls: int
    #: Wall-clock plus simulated UDF cost attributable to this tuple (seconds).
    charged_time: float
    #: Pure wall-clock processing time of this tuple (seconds).
    elapsed_time: float
    #: Whether a full hyperparameter retrain was performed for this tuple.
    retrained: bool
    #: Whether the tuple was quarantined: its refinement UDF calls kept
    #: failing after the installed retry policy was exhausted, so the
    #: result carries the last bound the algorithm had (recomputed from
    #: the surviving GP state — a pure-inference step, no UDF calls)
    #: instead of a converged one.
    quarantined: bool = False


@dataclass(frozen=True)
class FilteredOnlineResult:
    """Result of processing a tuple that carries a selection predicate."""

    #: Full result when the tuple survived, ``None`` when it was dropped early.
    result: Optional[OnlineTupleResult]
    #: Filtering decision (drop / keep / undecided).
    decision: FilterDecision
    #: Estimated tuple existence probability (NaN when dropped before a full pass).
    existence_probability: float
    charged_time: float
    elapsed_time: float
    #: UDF calls charged on either branch: initialisation, pilot refinement, full pass.
    udf_calls: int

    @property
    def dropped(self) -> bool:
        """Whether the tuple was filtered out."""
        return self.result is None


@dataclass
class ChunkPrologue:
    """Shared up-front state of one batched (or pipelined) chunk.

    Produced by :meth:`OLGAPRO.begin_chunk`: the initialisation charges for
    the first tuple, the ordered per-tuple Monte-Carlo draws with their
    individual durations, and the chunk-wide kernel cache with its per-tuple
    construction share.  Keeping the construction in one place is what keeps
    the batched pipeline and the cross-tuple scheduler charging (and
    sampling!) identically.
    """

    init_calls: int
    init_charged: float
    init_elapsed: float
    n_samples: int
    sample_sets: list
    sample_seconds: list
    boxes: list
    cache: "BatchKernelCache"
    cache_share: float


class ChunkStage:
    """What a scheduler plugs into :meth:`OLGAPRO.process_batch` — and its default.

    The tuple-commit loop exists once; a stage only *parameterises* it.  The
    base class is the degenerate stage (lookahead 1): nothing is speculated,
    nothing shares the chunk cache, nothing happens between commits.  The
    cross-tuple scheduler (:class:`repro.engine.pipeline.SpeculationStage`)
    overrides every member.
    """

    #: Evaluation carrier and window handed to :meth:`OLGAPRO.begin_chunk`
    #: so the initial design's UDF calls overlap (``None``: evaluate inline).
    carrier = None
    window = None
    #: Whether UDF evaluations for *other* tuples complete while a tuple
    #: commits.  Raw call-counter deltas are then polluted, so per-tuple
    #: calls are attributed from :attr:`OLGAPRO.refinement_evaluations`.
    overlapped = False

    def chunk(self, prologue: ChunkPrologue):
        """Context manager around one chunk's commit loop."""
        del prologue
        return nullcontext()

    def speculated(self, i: int) -> Optional[tuple[EnvelopeOutputs, float]]:
        """Tuple ``i``'s fence-valid speculated ``(envelope, bound)``, or ``None``."""
        del i
        return None

    def guard(self):
        """Context manager around every commit-side use of the chunk cache."""
        return nullcontext()

    def committed(self, i: int, points_added: int) -> None:
        """Called after tuple ``i`` commits, before tuple ``i + 1`` starts."""


def select_top_k_distinct(samples: np.ndarray, stds: np.ndarray, k: int) -> list[int]:
    """Indices of the ``k`` highest-variance *distinct* sample rows.

    The stable order makes the speculative (and asynchronous) refinement
    trajectories deterministic; duplicate rows are skipped because empirical
    input distributions resample their support with replacement, and a
    duplicated row would spend two UDF calls on one location and absorb a
    numerically repeated row into the covariance.
    """
    order: list[int] = []
    seen_rows: set[bytes] = set()
    for candidate in np.argsort(-np.asarray(stds), kind="stable"):
        key = samples[candidate].tobytes()
        if key in seen_rows:
            continue
        seen_rows.add(key)
        order.append(int(candidate))
        if len(order) == k:
            break
    return order


class OLGAPRO:
    """Online GP processor for one UDF (Algorithm 5)."""

    def __init__(
        self,
        udf: UDF,
        requirement: AccuracyRequirement | None = None,
        kernel: Optional[Kernel] = None,
        tuning_strategy: Optional[TuningStrategy] = None,
        retraining_policy: Optional[RetrainingPolicy] = None,
        mc_fraction: float = DEFAULT_MC_FRACTION,
        lambda_fraction: float = DEFAULT_LAMBDA_FRACTION,
        lambda_value: Optional[float] = None,
        gamma_fraction: float = DEFAULT_GAMMA_FRACTION,
        gamma: Optional[float] = None,
        band_alpha: float = DEFAULT_BAND_ALPHA,
        band_method: BandMethod = "euler",
        initial_training_points: int = 5,
        max_points_per_tuple: int = DEFAULT_MAX_POINTS_PER_TUPLE,
        max_training_points: int = DEFAULT_MAX_TRAINING_POINTS,
        use_local_inference: bool = True,
        subdivisions: int = 2,
        n_samples: Optional[int] = None,
        speculative_k: int = 1,
        random_state: RandomState = None,
    ):
        self.udf = udf
        self.requirement = requirement if requirement is not None else AccuracyRequirement()
        self.budget: ErrorBudget = self.requirement.split(mc_fraction)
        #: Optional override of the per-tuple Monte-Carlo sample count.  When
        #: ``None`` the count follows the sampling share of the error budget.
        self.n_samples_override = n_samples
        self.emulator = GPEmulator(udf, kernel=kernel)
        self.tuning_strategy = tuning_strategy or LargestVarianceStrategy()
        self.retraining_policy = retraining_policy or ThresholdRetrain()
        self.lambda_fraction = float(lambda_fraction)
        self._lambda_value = lambda_value
        self.gamma_fraction = float(gamma_fraction)
        self._gamma = gamma
        self.band_alpha = float(band_alpha)
        self.band_method: BandMethod = band_method
        self.initial_training_points = int(initial_training_points)
        self.max_points_per_tuple = int(max_points_per_tuple)
        self.max_training_points = int(max_training_points)
        self.use_local_inference = bool(use_local_inference)
        self.subdivisions = int(subdivisions)
        #: Refinement window when no driver is installed: training points
        #: proposed per iteration of :meth:`_tune_until_bounded`.  With the
        #: default 1 the loop is the paper's Algorithm 5 (one point, one
        #: bound re-check, one O(n^2) inverse update per iteration).  With
        #: ``k > 1`` the top-k highest-variance Monte-Carlo samples are
        #: evaluated and absorbed through a single blocked O(n^2 k) inverse
        #: update, and the bound is re-checked once per block — cutting
        #: factorization and inference work in the refinement loop by
        #: roughly k× at the risk of adding up to k - 1 more points than
        #: strictly needed.  NOTE: a window > 1 fixes the selection rule to
        #: stable top-k-by-variance (the natural multi-point generalisation
        #: of the paper's largest-variance rule); a configured
        #: ``tuning_strategy`` only applies at window 1.
        self.speculative_k = int(speculative_k)
        #: Injectable refinement-window carrier.  ``None`` evaluates each
        #: window inline, as one slice.  When set, the one loop in
        #: :meth:`_tune_until_bounded` runs at ``driver.window``: it hands
        #: every window to ``driver.submit(udf, X)`` (one future per row),
        #: absorbs the values in the slices of ``driver.schedule(k)`` while
        #: later ones are still in flight, and settles the window through
        #: ``driver.drain(futures)`` — this is how the chunk executor
        #: (:mod:`repro.engine.batch`) overlaps UDF calls with GP work
        #: without OLGAPRO knowing about thread pools, event loops, or any
        #: other :class:`~repro.engine.transport.EvaluationTransport`.
        #: Drivers are installed per computation (and removed afterwards),
        #: so a pickled OLGAPRO never carries one.
        self.evaluation_driver = None
        #: Injectable source of already-paid-for UDF values, consulted
        #: before a single candidate or an inline window spends a fresh
        #: evaluation.  The cross-tuple stage
        #: (:class:`~repro.engine.pipeline.SpeculationStage`) installs one
        #: so candidates whose evaluations were speculatively submitted
        #: while *earlier* tuples were still refining are reused instead of
        #: re-evaluated.  ``None`` (the default) keeps every candidate a
        #: direct UDF call.  Installed per chunk, never pickled.
        self.value_source = None
        #: Injectable live-model synchroniser
        #: (:class:`~repro.core.shared_model.EmulatorSync`), the seam behind
        #: ``merge="shared"``.  When set, tuple boundaries become learning
        #: exchanges with a :class:`~repro.core.shared_model
        #: .SharedEmulatorStore`: rows this processor evaluated are
        #: published, rows other learners committed are absorbed (never
        #: re-charged — the learner that evaluated them already paid), and
        #: a cold model seeds itself from the store instead of paying for
        #: its own initial design.  Like the driver and the value source,
        #: the hook is installed per computation, so a pickled OLGAPRO
        #: never carries one.
        self.model_sync = None
        self._rng = as_generator(random_state)
        self._tuples_processed = 0
        #: ``(model fingerprint, count)``: the chunk loop's tuples committed
        #: since the model last moved — what sizes the first pass's window.
        self._quiet: tuple[Optional[tuple[bytes, int]], int] = (None, 0)
        #: Factorization-grade GP operations (Cholesky / rank-1 / blocked
        #: inverse updates) performed *inside the refinement loop* across all
        #: tuples — excludes initial training and hyperparameter retraining,
        #: so serial and speculative tuning are directly comparable.
        self.refinement_factorizations = 0
        #: UDF evaluations *consumed* by the refinement loops across all
        #: tuples (window submissions, speculative blocks — rolled back or
        #: not — and single-point absorptions; reused prefetched values
        #: count too, since the committed trajectory asked for them).  The
        #: pipeline scheduler reads per-tuple deltas of this counter for
        #: call attribution: unlike raw UDF call-count deltas it is updated
        #: only on the coordinating thread, so concurrent speculative
        #: completions for *other* tuples cannot pollute it.
        self.refinement_evaluations = 0

        if self.initial_training_points < 2:
            raise GPError("initial_training_points must be at least 2")
        if self.max_points_per_tuple < 1:
            raise GPError("max_points_per_tuple must be at least 1")
        if self.speculative_k < 1:
            raise GPError("speculative_k must be at least 1")
        if self.speculative_k > 1 and tuning_strategy is not None:
            raise GPError(
                "speculative_k > 1 fixes the selection rule to top-k largest "
                "variance and cannot be combined with a custom tuning_strategy"
            )

    # -- pickling -------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support: per-computation seams never cross process boundaries.

        The driver, value source and model synchroniser are installed for
        the duration of one computation and may hold thread pools, locks or
        manager proxies; a pickled processor (the parallel layer's shard
        payload) always starts with the seams empty.
        """
        state = dict(self.__dict__)
        state["evaluation_driver"] = None
        state["value_source"] = None
        state["model_sync"] = None
        return state

    # -- introspection --------------------------------------------------------------
    @property
    def n_training(self) -> int:
        """Training points accumulated so far across all tuples."""
        return self.emulator.n_training

    @property
    def tuples_processed(self) -> int:
        """Number of input tuples processed so far."""
        return self._tuples_processed

    def output_range(self) -> float:
        """Current estimate of the UDF output range (from the training data)."""
        return self.output_range_of(self.emulator.gp)

    def output_range_of(self, gp) -> float:
        """Output-range estimate read from an explicit GP state.

        The pipeline scheduler's speculative stages evaluate bounds against a
        snapshot-restored *view* of the model rather than the live emulator;
        parameterising the model-derived quantities on the GP keeps those
        computations bitwise identical to the live ones at the same state.
        """
        if gp.n_training == 0:
            return 1.0
        return max(gp.target_range(), 1e-12)

    def lambda_value(self) -> float:
        """Minimum interval length λ in output units."""
        return self.lambda_value_for(self.emulator.gp)

    def lambda_value_for(self, gp) -> float:
        """λ derived from an explicit GP state (see :meth:`output_range_of`)."""
        if self._lambda_value is not None:
            return self._lambda_value
        return self.lambda_fraction * self.output_range_of(gp)

    def gamma_threshold(self) -> float:
        """Local-inference threshold Γ in output units."""
        return self.gamma_threshold_for(self.emulator.gp)

    def gamma_threshold_for(self, gp) -> float:
        """Γ derived from an explicit GP state (see :meth:`output_range_of`)."""
        if self._gamma is not None:
            return self._gamma
        return max(self.gamma_fraction * self.output_range_of(gp), 1e-12)

    def mc_samples(self) -> int:
        """Per-tuple Monte-Carlo sample count actually used."""
        if self.n_samples_override is not None:
            return int(self.n_samples_override)
        return self.budget.mc_samples

    def reseed(self, rng: np.random.Generator) -> None:
        """Point every random-stream consumer of this processor at ``rng``.

        Kept next to the fields it touches so a future stochastic component
        (a strategy or policy holding its own generator) is reseeded where
        it is added — the parallel layer relies on this switching *all*
        consumers onto a shard's keyed stream.
        """
        self._rng = rng

    # -- main entry points -------------------------------------------------------------
    def process(
        self, input_distribution: Distribution, random_state: RandomState = None
    ) -> OnlineTupleResult:
        """Compute the output distribution for one uncertain input tuple."""
        if self.model_sync is not None:
            self.model_sync.sync()
        started = time.perf_counter()
        rng = as_generator(random_state) if random_state is not None else self._rng
        calls_before = self.udf.call_count
        charged_before = self.udf.charged_time

        self._ensure_initialized(input_distribution, rng)
        m = self.mc_samples()
        samples = input_distribution.sample(m, random_state=rng)
        box = BoundingBox.from_points(samples)

        quarantined = False
        try:
            envelope, gp_bound, points_added, converged = self._tune_until_bounded(
                samples, box, rng
            )
        except UDFError:
            if not self._quarantine_enabled():
                raise
            # Quarantine: the refinement loop died on a terminal UDF
            # failure, but the GP state it left behind is consistent —
            # recompute the honest (unconverged) bound from it with pure
            # inference, no further UDF calls.
            envelope, gp_bound = self._infer_and_bound(samples, box)
            points_added, converged, quarantined = 0, False, True

        retrained = self._maybe_retrain(points_added)
        if retrained:
            envelope, gp_bound = self._infer_and_bound(samples, box)

        elapsed = time.perf_counter() - started
        self._tuples_processed += 1
        if self.model_sync is not None:
            self.model_sync.sync()
        return self._tuple_result(
            envelope,
            gp_bound,
            converged=converged,
            points_added=points_added,
            n_samples=m,
            udf_calls=self.udf.call_count - calls_before,
            charged_time=self.udf.charged_time - charged_before + elapsed,
            elapsed_time=elapsed,
            retrained=retrained,
            quarantined=quarantined,
        )

    def process_batch(
        self,
        input_distributions,
        random_state: RandomState = None,
        timings=None,
        stage: Optional[ChunkStage] = None,
    ) -> list[OnlineTupleResult]:
        """Process a chunk of uncertain tuples: the one tuple-commit loop.

        Semantics match calling :meth:`process` once per tuple, in order —
        with a deterministic tuning strategy (the default) the results are
        numerically identical under the same seed, because Monte-Carlo
        sampling is the only consumer of the random stream and the samples
        are drawn in the same tuple order.  The speedup comes from sharing
        the kernel algebra across the chunk through a
        :class:`~repro.core.local_inference.BatchKernelCache` (one distance
        matrix for the chunk's retrievals, cached local factorisations) and
        from the *first pass*: tuple ``i``'s first envelope and bound come
        from the cache's armed window — as many consecutive tuples as fit
        its row cap while the model is quiet, their inference and bound
        computed together (:meth:`_first_pass`) — and are consumed only
        while the model fingerprint still matches the state they were
        computed under, so the results are bit-identical whatever the
        window's length.  Only tuples whose bound misses the GP budget
        enter the per-tuple refinement loop.

        ``timings``, when given, must expose ``add(phase, seconds)`` and
        receives per-phase wall-clock spent in ``"sampling"``,
        ``"inference"`` and ``"refinement"``.

        ``stage`` plugs a cross-tuple scheduler into the loop (see
        :class:`ChunkStage`): it may hand tuple ``i`` a fence-valid
        speculated first bound, and is told after every commit.  Whatever
        the stage, every tuple gets the same quarantine, model-sync,
        first-pass and retraining treatment — commits stay strictly in
        tuple order on the calling thread.
        """
        distributions = list(input_distributions)
        if not distributions:
            if timings is not None:
                for phase in ("sampling", "inference", "refinement"):
                    timings.add(phase, 0.0)
            return []
        rng = as_generator(random_state) if random_state is not None else self._rng
        stage = stage if stage is not None else ChunkStage()

        prologue = self.begin_chunk(
            distributions, rng, timings=timings,
            evaluation_executor=stage.carrier, max_inflight=stage.window,
        )
        m = prologue.n_samples
        sample_sets = prologue.sample_sets
        boxes = prologue.boxes
        cache = prologue.cache

        #: The armed window's first-pass entries, the tuples they belong to,
        #: and the model fingerprint they were computed under.
        first_pass: list[tuple[EnvelopeOutputs, float]] = []
        first_window = range(0)
        first_fp: Optional[tuple[bytes, int]] = None

        results: list[OnlineTupleResult] = []
        with stage.chunk(prologue):
            for i, samples in enumerate(sample_sets):
                # Tuple-boundary learning exchange (merge="shared"): publish the
                # rows the previous tuple's refinement paid for and absorb what
                # other learners committed meanwhile.  Placed before the tuple's
                # clock starts — sync cost is accounted under its own
                # model_refresh / model_append phases, not the tuple's elapsed.
                if self.model_sync is not None:
                    self.model_sync.sync()
                started = time.perf_counter()
                calls_before = self.udf.call_count
                charged_before = self.udf.charged_time
                evals_before = self.refinement_evaluations
                # Tuples committed since anything — refinement, a retrain, a
                # learning exchange — last moved the model: what sizes the
                # next armed window.
                fingerprint = self._model_fingerprint()
                quiet_fp, quiet = self._quiet
                self._quiet = (fingerprint, quiet + 1 if fingerprint == quiet_fp else 0)
                speculated = stage.speculated(i)
                phase_started = time.perf_counter()
                if speculated is not None:
                    envelope, bound = speculated
                else:
                    with stage.guard():
                        if i not in first_window or fingerprint != first_fp:
                            # No window yet, its end reached, or the model
                            # moved under it: arm afresh from this tuple
                            # (never from an earlier one, so nothing is
                            # computed twice).
                            first_window, first_pass = self._first_pass(cache, boxes, m, i)
                            first_fp = fingerprint
                        envelope, bound = first_pass[i - first_window.start]
                        # Leave the cache's single-row memo on this tuple's
                        # block so a later cached re-inference (the retrained
                        # branch) absorbs new training points as appended
                        # kernel columns whatever the window's length.
                        cache.rows(self.emulator.gp, i)
                if timings is not None:
                    timings.add("inference", time.perf_counter() - phase_started)
                points_added = 0
                converged = True
                quarantined = False
                if bound > self.budget.epsilon_gp:
                    refine_started = time.perf_counter()
                    try:
                        envelope, bound, points_added, converged = self._tune_until_bounded(
                            samples, boxes[i], rng, initial=(envelope, bound)
                        )
                    except UDFError:
                        if not self._quarantine_enabled():
                            raise
                        # Per-tuple quarantine inside a chunk: keep the honest
                        # bound recomputed from the surviving GP state (fresh
                        # stock inference — the cache may lag points the failed
                        # refinement absorbed) and carry on with the next tuple.
                        envelope, bound = self._infer_and_bound(samples, boxes[i])
                        points_added, converged, quarantined = 0, False, True
                    if timings is not None:
                        timings.add("refinement", time.perf_counter() - refine_started)
                retrained = self._maybe_retrain(points_added)
                if retrained:
                    with stage.guard():
                        envelope, bound = self._infer_and_bound(
                            samples, boxes[i], infer=self._make_cached_infer(cache, i)
                        )
                # Cover this tuple's share of the up-front work: its own sample
                # draw plus an even share of the chunk's cache construction
                # (and, for the first tuple, model initialisation — matching
                # where the per-tuple path charges it).
                elapsed = (
                    time.perf_counter() - started
                    + prologue.sample_seconds[i] + prologue.cache_share
                )
                if i == 0:
                    elapsed += prologue.init_elapsed
                if stage.overlapped:
                    udf_calls = self.refinement_evaluations - evals_before
                else:
                    udf_calls = self.udf.call_count - calls_before
                self._tuples_processed += 1
                results.append(
                    self._tuple_result(
                        envelope,
                        bound,
                        converged=converged,
                        points_added=points_added,
                        n_samples=m,
                        udf_calls=udf_calls + (prologue.init_calls if i == 0 else 0),
                        charged_time=self.udf.charged_time - charged_before + elapsed
                        + (prologue.init_charged if i == 0 else 0.0),
                        elapsed_time=elapsed,
                        retrained=retrained,
                        quarantined=quarantined,
                    )
                )
                stage.committed(i, points_added)
        if self.model_sync is not None:
            # Publish the final tuple's rows so other learners (and the
            # parent's post-run refresh) see the whole shard's learning.
            self.model_sync.sync()
        return results

    def begin_chunk(
        self,
        distributions,
        rng: np.random.Generator,
        timings=None,
        evaluation_executor=None,
        max_inflight=None,
    ) -> ChunkPrologue:
        """Run one chunk's shared prologue: initialise, sample, build the cache.

        Initialisation cost is charged to the first tuple, exactly as the
        per-tuple path would (it initialises inside the first ``process()``),
        and per-tuple sampling durations are kept so each tuple's elapsed /
        charged time covers its own draw.  Monte-Carlo draws happen strictly
        in tuple order (:func:`repro.distributions.columns.sample_chunk`:
        one stacked generator call when the inputs encode as a homogeneous
        column, bit-identical to the per-tuple draws) — sampling is the
        shared random stream's only consumer, which is what makes every
        batch-level executor consume it identically.
        ``evaluation_executor`` / ``max_inflight`` forward to
        :meth:`_ensure_initialized` so a stage's evaluation transport can
        overlap the initial design's UDF calls (the trained model is
        identical either way).
        """
        distributions = list(distributions)
        m = self.mc_samples()
        if not distributions:
            # A zero-length column block is a legal chunk: nothing is
            # initialised, sampled or cached, and the phases report zero.
            if timings is not None:
                timings.add("sampling", 0.0)
                timings.add("inference", 0.0)
            return ChunkPrologue(
                init_calls=0,
                init_charged=0.0,
                init_elapsed=0.0,
                n_samples=m,
                sample_sets=[],
                sample_seconds=[],
                boxes=[],
                cache=None,
                cache_share=0.0,
            )
        init_calls_before = self.udf.call_count
        init_charged_before = self.udf.charged_time
        init_started = time.perf_counter()
        self._ensure_initialized(
            distributions[0], rng,
            evaluation_executor=evaluation_executor, max_inflight=max_inflight,
        )
        init_calls = self.udf.call_count - init_calls_before
        init_charged = self.udf.charged_time - init_charged_before
        init_elapsed = time.perf_counter() - init_started
        sample_sets, sample_seconds = sample_chunk(distributions, m, rng)
        # Per-axis minima / maxima over the stacked block's sample axis are
        # the reductions ``BoundingBox.from_points`` performs per tuple.
        block = np.stack(sample_sets)
        boxes = [BoundingBox(low, high) for low, high in zip(block.min(axis=1), block.max(axis=1))]
        if timings is not None:
            timings.add("sampling", float(sum(sample_seconds)))

        phase_started = time.perf_counter()
        cache = BatchKernelCache(self.emulator.gp, sample_sets, boxes)
        cache_share = (time.perf_counter() - phase_started) / len(sample_sets)
        if timings is not None:
            timings.add("inference", cache_share * len(sample_sets))
        return ChunkPrologue(
            init_calls=init_calls,
            init_charged=init_charged,
            init_elapsed=init_elapsed,
            n_samples=m,
            sample_sets=sample_sets,
            sample_seconds=sample_seconds,
            boxes=boxes,
            cache=cache,
            cache_share=cache_share,
        )

    def process_with_filter(
        self,
        input_distribution: Distribution,
        predicate: SelectionPredicate,
        pilot_fraction: float = 0.1,
        random_state: RandomState = None,
    ) -> FilteredOnlineResult:
        """Process a tuple carrying a selection predicate with online filtering (§5.5).

        A pilot batch of input samples is pushed through the emulator first;
        if even the *upper* bound ``ρ_U`` on the predicate probability (plus
        the Hoeffding slack for the pilot size) is below the threshold, the
        tuple is dropped without paying for the full sample budget or any
        further training-point additions.
        """
        started = time.perf_counter()
        rng = as_generator(random_state) if random_state is not None else self._rng
        calls_before = self.udf.call_count
        charged_before = self.udf.charged_time

        self._ensure_initialized(input_distribution, rng)
        m = self.mc_samples()
        # The pilot must be large enough that the Hoeffding slack can actually
        # certify "below threshold": half-width at most threshold / 2.
        theta = max(predicate.threshold, 1e-3)
        required = int(np.ceil(np.log(2.0 / self.budget.delta_mc) / (2.0 * (theta / 2.0) ** 2)))
        pilot_size = max(50, int(pilot_fraction * m), required)
        pilot_size = min(pilot_size, m)
        pilot = input_distribution.sample(pilot_size, random_state=rng)
        pilot_box = BoundingBox.from_points(pilot)
        # Tune the model on the pilot first so that the upper bound ρ_U used
        # for the drop decision comes from a model that meets the GP error
        # budget in this input region; otherwise an immature emulator could
        # filter out tuples it simply has not learned yet (false negatives).
        envelope, _, _, _ = self._tune_until_bounded(pilot, pilot_box, rng)
        rho_lower, rho_hat, rho_upper = interval_probability_bounds(
            envelope, predicate.low, predicate.high
        )
        del rho_lower
        decision = upper_bound_decision(
            rho_upper, rho_hat, predicate, pilot_size, self.budget.delta_mc
        )
        if decision.action == "drop":
            elapsed = time.perf_counter() - started
            return FilteredOnlineResult(
                result=None,
                decision=decision,
                existence_probability=rho_hat,
                charged_time=self.udf.charged_time - charged_before + elapsed,
                elapsed_time=elapsed,
                udf_calls=self.udf.call_count - calls_before,
            )
        result = self.process(input_distribution, random_state=rng)
        existence = result.distribution.interval_probability(predicate.low, predicate.high)
        final_decision = upper_bound_decision(
            existence, existence, predicate, result.n_samples, self.budget.delta_mc
        )
        elapsed = time.perf_counter() - started
        return FilteredOnlineResult(
            result=result,
            decision=final_decision,
            existence_probability=existence,
            charged_time=self.udf.charged_time - charged_before + elapsed,
            elapsed_time=elapsed,
            udf_calls=self.udf.call_count - calls_before,
        )

    # -- internals ------------------------------------------------------------------------
    def _ensure_initialized(
        self,
        input_distribution: Distribution,
        rng: np.random.Generator,
        evaluation_executor=None,
        max_inflight=None,
    ) -> None:
        """Seed the model with a few training points around the first input.

        ``evaluation_executor`` / ``max_inflight`` let a concurrency-aware
        caller (the async and pipeline executors) overlap the initial
        design's UDF calls; the trained model is identical either way.
        """
        if self.emulator.n_training > 0:
            return
        if self.model_sync is not None and self.model_sync.seed_or_wait(
            self.initial_training_points
        ):
            # Warm-started from the shared store: another learner already
            # paid for (and published) an initial design, so this model
            # seeds itself for zero UDF calls.
            return
        if self.udf.domain is not None:
            domain = self.udf.domain
        else:
            domain = input_distribution.support_box(coverage=0.999)
        self.emulator.train_initial(
            self.initial_training_points,
            design="random",
            domain=domain,
            random_state=rng,
            optimize_hyperparameters=True,
            evaluation_executor=evaluation_executor,
            max_inflight=max_inflight,
        )
        if self.model_sync is not None:
            # This learner won (or defaulted to) paying for the initial
            # design — publish it, hyperparameters first so seeders skip
            # their own maximum-likelihood refit.
            self.model_sync.publish_hyperparameters()
            self.model_sync.sync()

    def _infer(self, samples: np.ndarray, box: BoundingBox):
        if self.use_local_inference and self.emulator.n_training > 3:
            engine = LocalInferenceEngine(
                gamma_threshold=self.gamma_threshold(), subdivisions=self.subdivisions
            )
            return engine.predict(self.emulator.gp, samples, sample_box=box)
        return global_inference(self.emulator.gp, samples)

    def _make_cached_infer(self, cache: BatchKernelCache, i: int):
        """Per-tuple inference closure backed by the shared batch cache.

        Mirrors the :meth:`_infer` strategy branch at every call — the
        refinement loop re-infers after each added training point, and the
        cache absorbs those additions as appended kernel columns instead of
        fresh per-tuple kernel evaluations.
        """

        def infer(samples: np.ndarray, box: BoundingBox):
            del samples, box  # identified by the tuple's slot in the cache
            return self.cached_inference_with(self.emulator.gp, cache, i)

        return infer

    def _model_fingerprint(self) -> tuple[bytes, int]:
        """Hyperparameters + training-set size: what invalidates precomputation."""
        gp = self.emulator.gp
        return (gp.kernel.theta.tobytes(), gp.n_training)

    def _first_pass(
        self, cache: BatchKernelCache, boxes, n_points: int, start: int
    ) -> tuple[range, list[tuple[EnvelopeOutputs, float]]]:
        """First envelope and bound of the window the cache arms from ``start``.

        The window is sized by :meth:`BatchKernelCache.arm
        <repro.core.local_inference.BatchKernelCache.arm>` from the quiet
        count the commit loop keeps.  One tuple is the scalar step the
        refinement loop's re-check and :meth:`process` also run; a longer
        window runs the same step for all its tuples at once — batched
        point selection, grouped variance passes, hoisted band calibration,
        batched envelope sorts and the batched discrepancy sweep — each
        stage bit-identical per tuple to the scalar one.  An entry is only
        consumed while the live model still matches the state it was
        computed under.
        """
        gp = self.emulator.gp
        window = cache.arm(gp, start, self._quiet[1])
        if len(window) == 1:
            infer = self._make_cached_infer(cache, start)
            return window, [self._infer_and_bound(cache.sample_sets[start], boxes[start], infer)]
        if self.use_local_inference and gp.n_training > 3:
            engine = LocalInferenceEngine(
                gamma_threshold=self.gamma_threshold_for(gp), subdivisions=self.subdivisions
            )
            inferences = engine.predict_cached_block(gp, cache, window)
        else:
            inferences = global_inference_cached_block(gp, cache, window)
        bands = band_z_values(
            gp.kernel,
            boxes[window.start : window.stop],
            alpha=self.band_alpha,
            method=self.band_method,
            n_points=n_points,
        )
        envelopes = self._build_envelopes_block(inferences, bands)
        if self.requirement.metric == "ks":
            bounds = [gp_ks_bound(envelope) for envelope in envelopes]
        else:
            bounds = gp_discrepancy_bound_block(envelopes, self.lambda_value_for(gp))
        return window, [(envelope, float(bound)) for envelope, bound in zip(envelopes, bounds)]

    @staticmethod
    def _build_envelopes_block(inferences, bands) -> list[EnvelopeOutputs]:
        """Batched :func:`build_envelope_outputs` over one chunk's inferences.

        The three per-tuple sample arrays are assembled as ``(B, m)``
        blocks and sorted along the sample axis in one call per variable —
        sorting a row of a block and sorting the row alone order the same
        values identically, so each ECDF's state matches the scalar
        constructor's.  Ragged or non-finite blocks (which the scalar
        constructor would filter) fall back to the scalar path wholesale.
        """
        sizes = {inference.means.size for inference in inferences}
        blocks = None
        if len(sizes) == 1 and sizes != {0}:
            means_block = np.stack([inference.means for inference in inferences])
            stds_block = np.stack([inference.stds for inference in inferences])
            z_col = np.array([band.z_value for band in bands])
            if np.all(stds_block >= 0) and np.all(z_col >= 0):
                lower_block = means_block - z_col[:, None] * stds_block
                upper_block = means_block + z_col[:, None] * stds_block
                if (
                    np.isfinite(means_block).all()
                    and np.isfinite(lower_block).all()
                    and np.isfinite(upper_block).all()
                ):
                    blocks = (
                        np.sort(means_block, axis=1),
                        np.sort(lower_block, axis=1),
                        np.sort(upper_block, axis=1),
                    )
        if blocks is None:
            return [
                build_envelope_outputs(inference.means, inference.stds, band.z_value)
                for inference, band in zip(inferences, bands)
            ]
        sorted_hat, sorted_lower, sorted_upper = blocks
        return [
            EnvelopeOutputs(
                y_hat=EmpiricalDistribution._from_sorted(sorted_hat[i]),
                y_lower=EmpiricalDistribution._from_sorted(sorted_lower[i]),
                y_upper=EmpiricalDistribution._from_sorted(sorted_upper[i]),
                z_value=bands[i].z_value,
            )
            for i in range(len(inferences))
        ]

    def cached_inference_with(self, gp, cache: BatchKernelCache, i: int):
        """Cached inference for tuple ``i`` against an explicit GP state.

        The live path (:meth:`_make_cached_infer`) passes the emulator's own
        model; the pipeline scheduler's speculative stages pass a
        snapshot-restored view, so the computation — including the local-
        versus-global strategy branch — is bitwise the one the live path
        would perform at the same model state.
        """
        if self.use_local_inference and gp.n_training > 3:
            engine = LocalInferenceEngine(
                gamma_threshold=self.gamma_threshold_for(gp), subdivisions=self.subdivisions
            )
            return engine.predict_cached(gp, cache, i)
        return global_inference_cached(gp, cache, i)

    def _infer_and_bound(
        self, samples: np.ndarray, box: BoundingBox, infer=None
    ) -> tuple[EnvelopeOutputs, float]:
        inference = (infer or self._infer)(samples, box)
        return self._bound_from_inference(inference, box, samples.shape[0])

    def _bound_from_inference(
        self, inference, box: BoundingBox, n_points: int
    ) -> tuple[EnvelopeOutputs, float]:
        """Envelope and GP error bound for one tuple's inference results."""
        return self.bound_with(self.emulator.gp, inference, box, n_points)

    def bound_with(
        self, gp, inference, box: BoundingBox, n_points: int
    ) -> tuple[EnvelopeOutputs, float]:
        """Envelope and bound derived from an explicit GP state.

        Parameterised twin of :meth:`_bound_from_inference` (the live path
        delegates here): the band uses the given model's kernel
        hyperparameters and λ derives from that model's output range, so a
        speculative stage working on a snapshot view reproduces the live
        computation bitwise when the model has not moved.
        """
        band = band_z_value(
            gp.kernel,
            box,
            alpha=self.band_alpha,
            method=self.band_method,
            n_points=n_points,
        )
        envelope = build_envelope_outputs(inference.means, inference.stds, band.z_value)
        if self.requirement.metric == "ks":
            bound = gp_ks_bound(envelope)
        else:
            bound = gp_discrepancy_bound(envelope, self.lambda_value_for(gp))
        return envelope, bound

    def _tune_until_bounded(
        self,
        samples: np.ndarray,
        box: BoundingBox,
        rng: np.random.Generator,
        initial: tuple[EnvelopeOutputs, float] | None = None,
    ) -> tuple[EnvelopeOutputs, float, int, bool]:
        """Steps 3–7 of Algorithm 5: the one refinement-window loop.

        Each iteration selects the ``window`` highest-variance distinct
        Monte-Carlo samples (stable order, so every trajectory is
        deterministic), obtains their UDF values, absorbs them slice by
        slice through blocked inverse updates — each slice fenced on the
        snapshot it was selected against — and re-checks the bound after
        every slice.  The plan's values only parameterise it:

        * no driver, ``speculative_k = 1`` — window 1, the paper's loop: the
          configured :attr:`tuning_strategy` picks the one point (the only
          case that consumes ``rng``);
        * no driver, ``speculative_k = k`` — window ``k`` evaluated inline
          (``udf.evaluate_batch``, or the :attr:`value_source`) and absorbed
          as one slice;
        * an :attr:`evaluation_driver` — window ``driver.window`` submitted
          through the driver's transport and absorbed in the slices of
          ``driver.schedule(k)`` *while later values are still in flight*;
          every submitted evaluation is drained (completed and charged)
          before the window ends, absorbed or not.

        Speculation can overshoot: absorbing a multi-point slice shifts the
        predictive means as well as shrinking the variances, and on rare
        degenerate slices the recomputed bound comes out strictly *worse*.
        The empirical bound is quantized in units of 1/n_samples and
        saturates at 1 while the model is still warming up, so "no worse"
        counts as progress; on a strict increase the model is rolled back
        to the slice's fence (a snapshot restore — no refactorization) and
        only the slice's best candidate is re-committed, reusing the
        observation already paid for.  The loop therefore never makes less
        progress per slice than the serial largest-variance rule.

        ``initial`` lets the chunk loop seed the refinement with the bound
        it computed from cached kernel algebra.  The loop body itself
        always uses the stock per-tuple inference: the chunk cache *grows*
        its blocks by appended columns, and the argmax over predictive
        variances would amplify a last-ulp difference between a grown and
        a fresh block into a different selection.  For the same reason a
        window > 1 first realigns a seeded bound to fresh algebra — the
        overshoot comparison must be fresh-vs-fresh (window 1 makes no such
        comparison, so it keeps the seed).
        """
        driver = self.evaluation_driver
        window = self.speculative_k if driver is None else driver.window
        epsilon_gp = self.budget.epsilon_gp
        n_samples = samples.shape[0]
        if initial is None:
            inference, envelope, bound = self._recheck(samples, box)
        else:
            # Selection inference is computed on demand (below) and then
            # refreshed by every post-absorb re-check: the model is
            # unchanged between a re-check and the next selection.
            inference = None
            envelope, bound = initial
        points_added = 0
        ops_before = self.emulator.gp.factorization_count
        try:
            while bound > epsilon_gp:
                capacity = min(
                    self.max_points_per_tuple - points_added,
                    self.max_training_points - self.emulator.n_training,
                )
                if capacity <= 0:
                    return envelope, bound, points_added, False
                if inference is None:
                    inference = self._infer(samples, box)
                    if window > 1:
                        envelope, bound = self._bound_from_inference(inference, box, n_samples)
                        continue
                if window == 1:
                    order = [
                        self.tuning_strategy.select(
                            samples,
                            inference.means,
                            inference.stds,
                            random_state=rng,
                            error_evaluator=self._make_error_evaluator(samples, box),
                        )
                    ]
                else:
                    order = select_top_k_distinct(
                        samples, inference.stds, min(window, capacity, n_samples)
                    )
                k = len(order)
                if k == 1:
                    self._absorb_candidate(samples[order[0]])
                    points_added += 1
                    inference, envelope, bound = self._recheck(samples, box)
                    continue
                X = samples[order]
                self.refinement_evaluations += k
                y = np.empty(k)
                futures = None if driver is None else driver.submit(self.udf, X)
                try:
                    for start, stop in ((0, k),) if driver is None else driver.schedule(k):
                        # The fence is captured *before* the slice's values
                        # are waited for: they complete (on worker threads,
                        # in any order) while the snapshot they speculate
                        # against is live, and the absorb rejects the slice
                        # if anything mutated the model meanwhile.
                        fence = self.emulator.snapshot()
                        if futures is None:
                            y[start:stop] = self._observe_candidates(X[start:stop])
                        else:
                            # In-order waits: a result completing out of
                            # order sits in its future until its slot is due.
                            for j in range(start, stop):
                                y[j] = futures[j].result()
                        bound_before = bound
                        self.emulator.absorb_observations(
                            X[start:stop], y[start:stop], fence=fence
                        )
                        inference, envelope, bound = self._recheck(samples, box)
                        if bound > bound_before and stop - start > 1:
                            # Overshoot.  (A single-point slice is exempt:
                            # re-committing the same point would rebuild
                            # the identical state.)
                            self.emulator.restore(fence)
                            self.emulator.absorb_observations(
                                X[start : start + 1], y[start : start + 1]
                            )
                            points_added += 1
                            inference, envelope, bound = self._recheck(samples, box)
                        else:
                            points_added += stop - start
                        if bound <= epsilon_gp:
                            break
                finally:
                    if futures is not None:
                        driver.drain(futures)
            return envelope, bound, points_added, True
        finally:
            self.refinement_factorizations += (
                self.emulator.gp.factorization_count - ops_before
            )

    def _tuple_result(
        self,
        envelope: EnvelopeOutputs,
        bound: float,
        *,
        converged: bool,
        points_added: int,
        n_samples: int,
        udf_calls: int,
        charged_time: float,
        elapsed_time: float,
        retrained: bool,
        quarantined: bool = False,
    ) -> OnlineTupleResult:
        """Assemble one tuple's result record.

        Shared by :meth:`process`, :meth:`process_batch` and the pipeline
        scheduler (:mod:`repro.engine.pipeline`), so the mapping from a
        finished refinement to :class:`OnlineTupleResult` — including the
        Theorem 4.1 bound combination — lives in one place.
        """
        return OnlineTupleResult(
            distribution=envelope.y_hat,
            envelope=envelope,
            error_bound=combine_bounds(
                epsilon_gp=bound,
                epsilon_mc=self.budget.epsilon_mc,
                delta_gp=self.budget.delta_gp,
                delta_mc=self.budget.delta_mc,
            ),
            converged=converged,
            points_added=points_added,
            n_training=self.emulator.n_training,
            n_samples=n_samples,
            udf_calls=udf_calls,
            charged_time=charged_time,
            elapsed_time=elapsed_time,
            retrained=retrained,
            quarantined=quarantined,
        )

    def _quarantine_enabled(self) -> bool:
        """Whether the UDF's installed retry policy quarantines failures."""
        policy = getattr(self.udf, "_retry_policy", None)
        return policy is not None and bool(policy.quarantine)

    # -- steps of the refinement-window loop ------------------------------------------
    def _absorb_candidate(self, x: np.ndarray) -> float:
        """Evaluate-or-reuse one refinement candidate and absorb it.

        When a :attr:`value_source` is installed and knows the point, the
        already-paid-for observation is absorbed without a fresh UDF call —
        the GP mutation (:meth:`~repro.core.emulator.GPEmulator
        .absorb_observations` of a single row) is the same rank-1 update
        :meth:`~repro.core.emulator.GPEmulator.add_training_point` performs,
        so reuse versus re-evaluation is invisible to the refinement
        trajectory (the UDF is deterministic).  Returns the observed value.
        """
        self.refinement_evaluations += 1
        if self.value_source is not None:
            y = self.value_source(x)
            if y is not None:
                self.emulator.absorb_observations(x.reshape(1, -1), np.array([y]))
                return float(y)
        return self.emulator.add_training_point(x)

    def _observe_candidates(self, X: np.ndarray) -> np.ndarray:
        """UDF values for a block of candidates, reusing prefetched ones.

        The inline window's counterpart of
        :meth:`_absorb_candidate`: each row already known to the installed
        :attr:`value_source` costs nothing (the pipeline scheduler's walks
        prefetched it), and only the misses pay for fresh evaluations.  The
        observed values — and therefore the refinement trajectory — are
        identical either way, because the UDF is deterministic.
        """
        if self.value_source is None:
            return self.udf.evaluate_batch(X)
        y = np.empty(X.shape[0])
        missing: list[int] = []
        for i, row in enumerate(X):
            value = self.value_source(row)
            if value is None:
                missing.append(i)
            else:
                y[i] = float(value)
        if missing:
            y[missing] = self.udf.evaluate_batch(X[missing])
        return y

    def _recheck(self, samples: np.ndarray, box: BoundingBox):
        """Fresh inference plus error bound after a model mutation."""
        fresh = self._infer(samples, box)
        envelope, bound = self._bound_from_inference(fresh, box, samples.shape[0])
        return fresh, envelope, bound

    def _make_error_evaluator(self, samples: np.ndarray, box: BoundingBox):
        """Candidate evaluator for the optimal-greedy tuning strategy.

        Simulating a candidate uses the GP's own predicted mean as the
        hypothetical function value — the predictive variance reduction (and
        hence the error bound) does not depend on the actual observed value,
        so this avoids spending real UDF calls on the simulation.
        """

        def evaluate(candidate_index: int) -> float:
            gp_copy = self._clone_gp()
            x = samples[candidate_index]
            y_hat = float(gp_copy.predict_mean(x.reshape(1, -1))[0])
            gp_copy.add_point(x, y_hat)
            means, stds = gp_copy.predict(samples, return_std=True)
            band = band_z_value(
                gp_copy.kernel,
                box,
                alpha=self.band_alpha,
                method=self.band_method,
                n_points=samples.shape[0],
            )
            envelope = build_envelope_outputs(means, stds, band.z_value)
            if self.requirement.metric == "ks":
                return gp_ks_bound(envelope)
            return gp_discrepancy_bound(envelope, self.lambda_value())

        return evaluate

    def _clone_gp(self):
        from repro.gp.regression import GaussianProcess

        clone = GaussianProcess(
            kernel=self.emulator.gp.kernel.clone(),
            noise_variance=self.emulator.gp.noise_variance,
        )
        clone.fit(self.emulator.gp.X_train, self.emulator.gp.y_train)
        return clone

    def _maybe_retrain(self, points_added: int) -> bool:
        decision = self.retraining_policy.decide(self.emulator.gp, points_added)
        if decision.should_retrain:
            self.retraining_policy.retrain(self.emulator.gp)
            return True
        return False
