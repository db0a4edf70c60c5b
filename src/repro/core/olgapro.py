"""OLGAPRO — the complete online GP algorithm (Algorithm 5, §5.4).

For every uncertain input tuple the algorithm:

1. draws the number of Monte-Carlo input samples dictated by the sampling
   share of the error budget,
2. runs (local) GP inference at those samples,
3. computes the λ-discrepancy (or KS) error bound of the GP modelling error
   using a simultaneous confidence band,
4. while the bound exceeds the GP share of the budget, evaluates the real
   UDF at the sample chosen by the online-tuning strategy and absorbs the
   new training point incrementally (or, at a plan refinement *window* > 1,
   at the top-k highest-variance samples at once through blocked inverse
   updates with snapshot-based rollback — see
   :meth:`OLGAPRO._tune_until_bounded`),
5. once the tuple is finished, consults the retraining policy and, when it
   fires, refits the kernel hyperparameters and re-runs inference,
6. under a selection predicate, runs §5.5's drop test on the envelope the
   tuple committed (:meth:`OLGAPRO.process_batch`): a predicate query is
   the apply query plus a pure read, so a kept tuple is bitwise the apply
   output and a dropped one carries ``ρ̂`` and no distribution.

Every UDF value the loop needs comes from one of two places: an inline
evaluation (window 1, no driver), or the :attr:`OLGAPRO.evaluation_driver`
the chunk executor installs whenever it opens a transport session — and
then every value comes through it: each window, each single refinement
point and the initial design.

Steps 2 and 3 are one per-tuple step (:meth:`OLGAPRO._infer_and_bound`:
:meth:`~repro.core.local_inference.LocalInferenceEngine.predict` plus the
bound), and every inference of every tuple runs it — whatever the plan,
since :meth:`OLGAPRO.process` is the chunk loop's chunk of one.

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
from repro.core.confidence_bands import BandMethod, band_z_value
from repro.core.emulator import GPEmulator
from repro.core.error_bounds import (
    CombinedErrorBound,
    EnvelopeOutputs,
    build_envelope_outputs,
    combine_bounds,
    gp_discrepancy_bound,
    gp_ks_bound,
    interval_probability_bounds,
)
from repro.core.filtering import FilterDecision, SelectionPredicate, upper_bound_decision
from repro.core.local_inference import LocalInferenceEngine, global_inference
from repro.core.online_tuning import LargestVarianceStrategy, TuningStrategy
from repro.core.retraining import RetrainingPolicy, ThresholdRetrain
from repro.distributions.base import Distribution
from repro.distributions.empirical import EmpiricalDistribution
from repro.exceptions import GPError, UDFError
from repro.gp.kernels import Kernel
from repro.index.bounding_box import BoundingBox
from repro.rng import RandomState, as_generator
from repro.udf.base import UDF
from repro.udf.retry import quarantine_enabled


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
    #: §5.5's drop test on the committed envelope, when the tuple carried a
    #: selection predicate and was not quarantined (``None`` otherwise).
    filter_decision: Optional[FilterDecision] = None

    @property
    def dropped(self) -> bool:
        """Whether online filtering ruled the tuple out."""
        return self.filter_decision is not None and self.filter_decision.action == "drop"


@dataclass
class ChunkPrologue:
    """Shared up-front state of one chunk.

    Produced by :meth:`OLGAPRO.begin_chunk`: the initialisation charges for
    the first tuple and the ordered per-tuple Monte-Carlo draws with their
    individual durations and bounding boxes.  Keeping the construction in
    one place is what keeps every plan and the cross-tuple scheduler
    charging (and sampling!) identically.
    """

    init_calls: int
    init_charged: float
    init_elapsed: float
    n_samples: int
    sample_sets: list
    sample_seconds: list
    boxes: list


class ChunkStage:
    """What a prefetcher plugs into :meth:`OLGAPRO.process_batch` — and its default.

    The tuple-commit loop exists once; a stage hands it nothing but UDF
    values (through the installed :attr:`OLGAPRO.evaluation_driver`), so it
    only needs to know when a chunk opens and when a tuple commits.  The
    base class is the degenerate stage (lookahead 1): nothing happens
    around the chunk or between commits.  The cross-tuple prefetcher
    (:class:`repro.engine.pipeline.SpeculationStage`) overrides every
    member.
    """

    #: Whether UDF evaluations for *other* tuples complete while a tuple
    #: commits.  Raw call-counter deltas are then polluted, so per-tuple
    #: calls are attributed from :attr:`OLGAPRO.refinement_evaluations`.
    overlapped = False

    def chunk(self, prologue: ChunkPrologue):
        """Context manager around one chunk's commit loop."""
        del prologue
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
        gamma_fraction: float = DEFAULT_GAMMA_FRACTION,
        band_alpha: float = DEFAULT_BAND_ALPHA,
        band_method: BandMethod = "euler",
        initial_training_points: int = 5,
        max_points_per_tuple: int = DEFAULT_MAX_POINTS_PER_TUPLE,
        max_training_points: int = DEFAULT_MAX_TRAINING_POINTS,
        use_local_inference: bool = True,
        n_samples: Optional[int] = None,
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
        self.gamma_fraction = float(gamma_fraction)
        self.band_alpha = float(band_alpha)
        self.band_method: BandMethod = band_method
        self.initial_training_points = int(initial_training_points)
        self.max_points_per_tuple = int(max_points_per_tuple)
        self.max_training_points = int(max_training_points)
        self.use_local_inference = bool(use_local_inference)
        #: Injectable UDF-value carrier.  ``None``: window 1, every value
        #: evaluated inline — the paper's Algorithm 5 (one point, one bound
        #: re-check, one O(n^2) inverse update per iteration).  When set,
        #: every value this processor needs comes through it: the initial
        #: design (:meth:`~repro.core.emulator.GPEmulator.train_initial`),
        #: each single refinement point, and each refinement window of
        #: ``driver.window`` points, which :meth:`_tune_until_bounded`
        #: hands to ``driver.submit(udf, X)`` (one future per row), absorbs
        #: in the slices of ``driver.schedule(k)`` while later ones are
        #: still in flight, and settles through ``driver.drain(futures)``.
        #: This is how the chunk executor (:mod:`repro.engine.batch`)
        #: overlaps UDF calls with GP work — and how the lookahead stage
        #: hands over prefetched values — without OLGAPRO knowing about thread
        #: pools, event loops, or any other
        #: :class:`~repro.engine.transport.EvaluationTransport`.  Drivers
        #: are installed per computation (and removed afterwards), so a
        #: pickled OLGAPRO never carries one.
        self.evaluation_driver = None
        #: Injectable live-model synchroniser
        #: (:class:`~repro.core.shared_model.EmulatorSync`), the seam behind
        #: ``merge="shared"``.  When set, tuple boundaries become learning
        #: exchanges with a :class:`~repro.core.shared_model
        #: .SharedEmulatorStore`: rows this processor evaluated are
        #: published, rows other learners committed are absorbed (never
        #: re-charged — the learner that evaluated them already paid), and
        #: a cold model seeds itself from the store instead of paying for
        #: its own initial design.  Like the driver, the hook is installed
        #: per computation, so a pickled OLGAPRO never carries one.
        self.model_sync = None
        self._rng = as_generator(random_state)
        self._tuples_processed = 0
        #: Factorization-grade GP operations (Cholesky / rank-1 / blocked
        #: inverse updates) performed *inside the refinement loop* across all
        #: tuples — excludes initial training and hyperparameter retraining,
        #: so serial and speculative tuning are directly comparable.
        self.refinement_factorizations = 0
        #: UDF evaluations *consumed* by the refinement loops across all
        #: tuples (window submissions, speculative blocks — rolled back or
        #: not — and single-point absorptions; reused prefetched values
        #: count too, since the committed trajectory asked for them).  Under
        #: an overlapped stage the commit loop reads per-tuple deltas of
        #: this counter for call attribution: unlike raw UDF call-count
        #: deltas it is updated only on the coordinating thread, so
        #: concurrent prefetches for *other* tuples cannot pollute it.
        self.refinement_evaluations = 0

        if self.initial_training_points < 2:
            raise GPError("initial_training_points must be at least 2")
        if self.max_points_per_tuple < 1:
            raise GPError("max_points_per_tuple must be at least 1")

    # -- pickling -------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support: per-computation seams never cross process boundaries.

        The driver and the model synchroniser are installed for
        the duration of one computation and may hold thread pools, locks or
        manager proxies; a pickled processor (the parallel layer's shard
        payload) always starts with the seams empty.
        """
        state = dict(self.__dict__)
        state["evaluation_driver"] = None
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

        The lookahead stage's prefetch walks estimate bounds against a
        snapshot-restored *view* of the model rather than the live emulator,
        so the model-derived quantities of a bound take the GP explicitly.
        """
        if gp.n_training == 0:
            return 1.0
        return max(gp.target_range(), 1e-12)

    def lambda_value(self) -> float:
        """Minimum interval length λ in output units."""
        return self.lambda_value_for(self.emulator.gp)

    def lambda_value_for(self, gp) -> float:
        """The requirement's λ, else λ derived from an explicit GP state.

        The derived λ is ``lambda_fraction`` of the output range (see
        :meth:`output_range_of`).
        """
        if self.requirement.lambda_value is not None:
            return self.requirement.lambda_value
        return self.lambda_fraction * self.output_range_of(gp)

    def gamma_threshold(self) -> float:
        """Local-inference threshold Γ in output units."""
        return max(self.gamma_fraction * self.output_range(), 1e-12)

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
        """Compute the output distribution for one uncertain input tuple: a chunk of one."""
        return self.process_batch([input_distribution], random_state=random_state)[0]

    def process_batch(
        self,
        input_distributions,
        random_state: RandomState = None,
        timings=None,
        stage: Optional[ChunkStage] = None,
        predicate: Optional[SelectionPredicate] = None,
    ) -> list[OnlineTupleResult]:
        """Process a chunk of uncertain tuples: the one tuple-commit loop.

        Every plan runs it (:meth:`process` is its chunk of one).  With a
        deterministic tuning strategy (the default) the results do not
        depend on where the chunk boundaries fall: Monte-Carlo sampling is
        the only consumer of the random stream, the samples are drawn up
        front in tuple order, and each tuple then takes the one per-tuple
        inference step (:meth:`_infer_and_bound`) against the model as the
        previous tuple left it.  Only tuples whose first bound misses the
        GP budget enter the refinement loop, which starts from that first
        inference instead of repeating it.

        ``timings``, when given, must expose ``add(phase, seconds)`` and
        receives per-phase wall-clock spent in ``"sampling"``,
        ``"inference"`` and ``"refinement"`` — and, under a predicate, in
        ``"filtering"``, which times the drop tests alone.

        ``stage`` plugs a cross-tuple prefetcher into the loop (see
        :class:`ChunkStage`): it scopes each chunk and is told after every
        commit, and it reaches the loop only through the values the
        evaluation driver returns.  Whatever the stage, every tuple gets
        the same first pass, quarantine, model-sync and retraining
        treatment — commits stay strictly in tuple order on the calling
        thread.

        ``predicate`` adds online filtering (§5.5) as the last step of a
        tuple's commit: the upper bound ``ρ_U`` of the envelope the tuple
        committed (:func:`~repro.core.error_bounds
        .interval_probability_bounds`) plus the Hoeffding slack at the
        tuple's ``m`` draws decides whether it is dropped
        (:func:`~repro.core.filtering.upper_bound_decision`, recorded on
        :attr:`OnlineTupleResult.filter_decision`).  The test only reads:
        the random stream, the model and every other field of the result
        are those of the same call without a predicate.  Quarantined tuples
        are not tested — a failed evaluation rules nothing out.
        """
        distributions = list(input_distributions)
        if not distributions:
            if timings is not None:
                for phase in ("sampling", "inference", "refinement"):
                    timings.add(phase, 0.0)
            return []
        rng = as_generator(random_state) if random_state is not None else self._rng
        stage = stage if stage is not None else ChunkStage()

        # The prologue runs before the stage's chunk scope opens, so an
        # initial design carried by the driver never reaches a prefetch
        # value pool (and its waste accounting).
        prologue = self.begin_chunk(distributions, rng, timings=timings)
        m = prologue.n_samples
        boxes = prologue.boxes

        results: list[OnlineTupleResult] = []
        with stage.chunk(prologue):
            for i, samples in enumerate(prologue.sample_sets):
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
                phase_started = time.perf_counter()
                first = self._infer_and_bound(samples, boxes[i])
                _, envelope, bound = first
                if timings is not None:
                    timings.add("inference", time.perf_counter() - phase_started)
                points_added = 0
                converged = True
                quarantined = False
                if bound > self.budget.epsilon_gp:
                    refine_started = time.perf_counter()
                    try:
                        envelope, bound, points_added, converged = self._tune_until_bounded(
                            samples, boxes[i], rng, initial=first
                        )
                    except UDFError:
                        if not quarantine_enabled(self.udf):
                            raise
                        # Per-tuple quarantine: the refinement loop died on a
                        # terminal UDF failure, but the GP state it left behind
                        # is consistent — keep the honest (unconverged) bound
                        # recomputed from it by pure inference, and carry on
                        # with the next tuple.
                        _, envelope, bound = self._infer_and_bound(samples, boxes[i])
                        points_added, converged, quarantined = 0, False, True
                    if timings is not None:
                        timings.add("refinement", time.perf_counter() - refine_started)
                retrained = self._maybe_retrain(points_added)
                if retrained:
                    _, envelope, bound = self._infer_and_bound(samples, boxes[i])
                decision = None
                if predicate is not None and not quarantined:
                    filter_started = time.perf_counter()
                    _, rho_hat, rho_upper = interval_probability_bounds(
                        envelope, predicate.low, predicate.high
                    )
                    decision = upper_bound_decision(
                        rho_upper, rho_hat, predicate, m, self.budget.delta_mc
                    )
                    if timings is not None:
                        timings.add("filtering", time.perf_counter() - filter_started)
                # Cover this tuple's share of the up-front work: its own sample
                # draw (and, for the first tuple, model initialisation).
                elapsed = time.perf_counter() - started + prologue.sample_seconds[i]
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
                        filter_decision=decision,
                    )
                )
                stage.committed(i, points_added)
        if self.model_sync is not None:
            # Publish the final tuple's rows so other learners (and the
            # parent's post-run refresh) see the whole shard's learning.
            self.model_sync.sync()
        return results

    def begin_chunk(
        self, distributions, rng: np.random.Generator, timings=None
    ) -> ChunkPrologue:
        """Run one chunk's shared prologue: initialise the model, draw the samples.

        Initialisation cost is charged to the chunk's first tuple.  Each
        tuple then draws its own Monte-Carlo samples, strictly in tuple
        order (``dist.sample(m, random_state=rng)``), and times its own draw
        so its elapsed / charged time covers it — sampling is the shared
        random stream's only consumer, which is what makes every plan
        consume it identically.  ``distributions`` is never empty
        (:meth:`process_batch` returns before calling this on no input).
        """
        distributions = list(distributions)
        m = self.mc_samples()
        init_calls_before = self.udf.call_count
        init_charged_before = self.udf.charged_time
        init_started = time.perf_counter()
        self._ensure_initialized(distributions[0], rng)
        init_calls = self.udf.call_count - init_calls_before
        init_charged = self.udf.charged_time - init_charged_before
        init_elapsed = time.perf_counter() - init_started
        sample_sets, sample_seconds = [], []
        for dist in distributions:
            started = time.perf_counter()
            sample_sets.append(dist.sample(m, random_state=rng))
            sample_seconds.append(time.perf_counter() - started)
        # Per-axis minima / maxima over the block's sample axis are the
        # reductions ``BoundingBox.from_points`` performs per tuple.
        block = np.stack(sample_sets)
        boxes = [BoundingBox(low, high) for low, high in zip(block.min(axis=1), block.max(axis=1))]
        if timings is not None:
            timings.add("sampling", float(sum(sample_seconds)))
        return ChunkPrologue(
            init_calls=init_calls,
            init_charged=init_charged,
            init_elapsed=init_elapsed,
            n_samples=m,
            sample_sets=sample_sets,
            sample_seconds=sample_seconds,
            boxes=boxes,
        )

    # -- internals ------------------------------------------------------------------------
    def _ensure_initialized(
        self, input_distribution: Distribution, rng: np.random.Generator
    ) -> None:
        """Seed the model with a few training points around the first input.

        An installed :attr:`evaluation_driver` carries the design's UDF
        calls, overlapped; the trained model is identical either way.
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
            driver=self.evaluation_driver,
        )
        if self.model_sync is not None:
            # This learner won (or defaulted to) paying for the initial
            # design — publish it, hyperparameters first so seeders skip
            # their own maximum-likelihood refit.
            self.model_sync.publish_hyperparameters()
            self.model_sync.sync()

    def _infer(self, samples: np.ndarray, box: BoundingBox):
        """Algorithm 4's inference at ``samples`` against the live model.

        Local inference once the model has enough points for retrieval to
        matter, global inference before.
        """
        gp = self.emulator.gp
        if self.use_local_inference and gp.n_training > 3:
            engine = LocalInferenceEngine(gamma_threshold=self.gamma_threshold())
            return engine.predict(gp, samples, sample_box=box)
        return global_inference(gp, samples)

    def _infer_and_bound(self, samples: np.ndarray, box: BoundingBox):
        """The one per-tuple step: fresh inference, its envelope and GP error bound.

        Every inference of a tuple runs it — the first pass, each
        refinement re-check, the retrained re-inference and the quarantine
        recompute.  Returns ``(inference, envelope, bound)``.
        """
        inference = self._infer(samples, box)
        envelope, bound = self._bound_from_inference(inference, box, samples.shape[0])
        return inference, envelope, bound

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
        prefetch walk can estimate a bound on its snapshot view.
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
        initial: tuple | None = None,
    ) -> tuple[EnvelopeOutputs, float, int, bool]:
        """Steps 3–7 of Algorithm 5: the one refinement-window loop.

        Each iteration selects the ``window`` highest-variance distinct
        Monte-Carlo samples (stable order, so every trajectory is
        deterministic), obtains their UDF values, absorbs them slice by
        slice through blocked inverse updates — each slice fenced on the
        snapshot it was selected against — and re-checks the bound after
        every slice.  The plan's window only parameterises it, and the
        values come by one of two routes:

        * no driver — window 1, the paper's loop: the configured
          :attr:`tuning_strategy` picks the one point (the only case that
          consumes ``rng``) and the UDF is evaluated inline;
        * an :attr:`evaluation_driver` — window ``driver.window`` (at
          window 1 the tuning strategy still picks the point; a window > 1
          fixes the rule to stable top-k by variance) submitted through
          the driver and absorbed in the slices of ``driver.schedule(k)``
          *while later values are still in flight*; every submitted
          evaluation is drained (completed and charged) before the window
          ends, absorbed or not.  A one-point window is
          :meth:`_absorb_candidate`, through the same driver.

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

        ``initial`` is the tuple's ``(inference, envelope, bound)`` from
        the commit loop's first pass, so the first selection reads that
        inference instead of repeating it.
        """
        driver = self.evaluation_driver
        window = 1 if driver is None else driver.window
        epsilon_gp = self.budget.epsilon_gp
        n_samples = samples.shape[0]
        # Every post-absorb re-check refreshes the selection inference: the
        # model is unchanged between a re-check and the next selection.
        inference, envelope, bound = (
            initial if initial is not None else self._infer_and_bound(samples, box)
        )
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
                    inference, envelope, bound = self._infer_and_bound(samples, box)
                    continue
                X = samples[order]
                self.refinement_evaluations += k
                y = np.empty(k)
                futures = driver.submit(self.udf, X)
                try:
                    for start, stop in driver.schedule(k):
                        # The fence is captured *before* the slice's values
                        # are waited for: they complete (on worker threads,
                        # in any order) while the snapshot they speculate
                        # against is live, and the absorb rejects the slice
                        # if anything mutated the model meanwhile.
                        fence = self.emulator.snapshot()
                        # In-order waits: a result completing out of order
                        # sits in its future until its slot is due.
                        for j in range(start, stop):
                            y[j] = futures[j].result()
                        bound_before = bound
                        self.emulator.absorb_observations(
                            X[start:stop], y[start:stop], fence=fence
                        )
                        inference, envelope, bound = self._infer_and_bound(samples, box)
                        if bound > bound_before and stop - start > 1:
                            # Overshoot.  (A single-point slice is exempt:
                            # re-committing the same point would rebuild
                            # the identical state.)
                            self.emulator.restore(fence)
                            self.emulator.absorb_observations(
                                X[start : start + 1], y[start : start + 1]
                            )
                            points_added += 1
                            inference, envelope, bound = self._infer_and_bound(samples, box)
                        else:
                            points_added += stop - start
                        if bound <= epsilon_gp:
                            break
                finally:
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
        filter_decision: Optional[FilterDecision] = None,
    ) -> OnlineTupleResult:
        """Assemble one tuple's result record, with Theorem 4.1's bound combination."""
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
            filter_decision=filter_decision,
        )

    # -- steps of the refinement-window loop ------------------------------------------
    def _absorb_candidate(self, x: np.ndarray) -> float:
        """Evaluate one refinement candidate and absorb it.

        Inline without a driver; otherwise the installed
        :attr:`evaluation_driver` carries the call (under the cross-tuple
        stage its value pool, so a prefetched point is reused rather than
        re-evaluated).  The GP mutation
        (:meth:`~repro.core.emulator.GPEmulator.absorb_observations` of a
        single row) is the same rank-1 update
        :meth:`~repro.core.emulator.GPEmulator.add_training_point` performs,
        so the route is invisible to the refinement trajectory (the UDF is
        deterministic).  Returns the observed value.
        """
        self.refinement_evaluations += 1
        driver = self.evaluation_driver
        if driver is None:
            return self.emulator.add_training_point(x)
        y = float(driver.submit(self.udf, x.reshape(1, -1))[0].result())
        self.emulator.absorb_observations(x.reshape(1, -1), np.array([y]))
        return y

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
