"""Strategy layer: how the engine computes a UDF on one uncertain tuple.

Each UDF referenced by a query is bound to a per-UDF processor that persists
across tuples (this is what makes the GP approach pay off: the emulator
trained on early tuples answers later tuples almost for free).  Three
strategies are available, mirroring the paper's evaluation:

* ``"mc"``      — Algorithm 1, plain Monte-Carlo simulation of the UDF,
* ``"gp"``      — OLGAPRO (Algorithm 5),
* ``"hybrid"``  — the §5.4 selector that measures the UDF and picks one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Optional

from repro.core.accuracy import AccuracyRequirement
from repro.core.filtering import SelectionPredicate
from repro.core.hybrid import HybridExecutor
from repro.core.mc_baseline import monte_carlo_with_filter
from repro.core.olgapro import OLGAPRO, OnlineTupleResult
from repro.distributions.base import Distribution
from repro.distributions.empirical import EmpiricalDistribution
from repro.exceptions import QueryError, UDFError
from repro.rng import RandomState, as_generator
from repro.timing import PhaseTimings
from repro.udf.base import UDF
from repro.udf.retry import quarantine_enabled

if TYPE_CHECKING:  # imported lazily at runtime (plan.py imports this module)
    from repro.engine.plan import ExecutionPlan
    from repro.engine.result import QueryResult

Strategy = Literal["mc", "gp", "hybrid"]


@dataclass(frozen=True)
class ComputedOutput:
    """Output of evaluating one UDF on one uncertain tuple."""

    #: Output distribution (``None`` when the tuple was filtered out early).
    distribution: Optional[EmpiricalDistribution]
    #: Total error bound claimed for the distribution (the requirement's ε
    #: for plain MC, whose sample count is derived from it; NaN only for a
    #: tuple quarantined before any bound existed).
    error_bound: float
    #: Existence probability contributed by a selection predicate (1.0 when
    #: no predicate was evaluated).
    existence_probability: float
    #: Whether the tuple was dropped by online filtering.
    dropped: bool
    #: UDF calls charged for this evaluation.
    udf_calls: int
    #: Charged time (wall clock + simulated UDF cost) in seconds.
    charged_time: float
    #: Whether the tuple was quarantined: its UDF evaluations kept failing
    #: after the retry policy was exhausted, so the query carried on and
    #: this output holds the last (unconverged) state instead of a
    #: converged answer.  ``error_bound`` is the last bound the online
    #: algorithm had (NaN when it failed before any bound existed) and
    #: ``distribution`` the matching envelope samples, or ``None``.
    failed: bool = False


def online_result_to_output(
    result: OnlineTupleResult, predicate: SelectionPredicate | None = None
) -> ComputedOutput:
    """Convert one OLGAPRO tuple result into the engine's output record.

    Under a ``predicate`` a dropped tuple keeps only ``ρ̂`` as its
    existence probability and no distribution; a kept one keeps its
    distribution, with the predicate's mass of it as existence probability.
    """
    existence = 1.0
    if result.dropped:
        existence = result.filter_decision.estimate
    elif result.filter_decision is not None:
        existence = result.distribution.interval_probability(predicate.low, predicate.high)
    return ComputedOutput(
        distribution=None if result.dropped else result.distribution,
        error_bound=result.error_bound.epsilon_total,
        existence_probability=existence,
        dropped=result.dropped,
        udf_calls=result.udf_calls,
        charged_time=result.charged_time,
        failed=result.quarantined,
    )


class UDFExecutionEngine:
    """Evaluates UDFs on uncertain tuples with a configurable strategy."""

    def __init__(
        self,
        strategy: Strategy = "gp",
        requirement: AccuracyRequirement | None = None,
        random_state: RandomState = None,
        plan: "ExecutionPlan | str | None" = None,
        **processor_kwargs,
    ):
        """Bind strategy, accuracy requirement, random stream and defaults.

        ``plan`` installs a default :class:`~repro.engine.plan.ExecutionPlan`
        for this engine: :meth:`compute_with_plan` falls back to it when
        called without an explicit plan.  The string ``"auto"`` is also
        accepted as the default plan: every computation then resolves its
        plan from the evaluated UDF's catalog profile
        (:meth:`ExecutionPlan.auto <repro.engine.plan.ExecutionPlan.auto>`).
        """
        if strategy not in ("mc", "gp", "hybrid"):
            raise QueryError(f"unknown strategy {strategy!r}")
        self.strategy: Strategy = strategy
        self.requirement = requirement if requirement is not None else AccuracyRequirement()
        self._rng = as_generator(random_state)
        self._processor_kwargs = processor_kwargs
        if isinstance(plan, str):
            from repro.engine.plan import is_auto_plan

            is_auto_plan(plan)  # validates the spelling (PlanError otherwise)
        self.plan = plan
        self._processors: dict[str, OLGAPRO | HybridExecutor] = {}
        #: Optional shared-model seam: a callable ``udf -> store-or-None``
        #: consulted whenever a GP-capable processor is handed out.  The
        #: serving layer installs it under ``share_models`` so every
        #: processor it creates is bound to the region's live
        #: :class:`~repro.core.shared_model.SharedEmulatorStore`; ``None``
        #: (the default) means processors learn privately.
        self._shared_store_resolver = None

    def __getstate__(self):
        """Engine state without the shared-store resolver seam.

        The resolver is an externally-installed closure over live store
        objects; neither pickles.  Pool workers that should keep learning
        against a shared model receive a store *proxy* explicitly and
        rebind their own sync (see ``repro.engine.parallel._run_shard``).
        """
        state = dict(self.__dict__)
        state["_shared_store_resolver"] = None
        return state

    def reseed(self, random_state: RandomState) -> None:
        """Point the engine *and every existing processor* at a new stream.

        The per-UDF processors capture the engine's generator at construction
        time, so simply replacing ``self._rng`` would leave them consuming
        the old stream.  The parallel execution layer calls this inside each
        worker to switch an unpickled engine copy onto its shard's
        :func:`~repro.rng.spawn_keyed` stream.  Each processor reseeds its
        own consumers via its ``reseed`` method.
        """
        rng = as_generator(random_state)
        self._rng = rng
        for processor in self._processors.values():
            processor.reseed(rng)

    def _processor_for(self, udf: UDF) -> OLGAPRO | HybridExecutor:
        key = udf.name
        if key not in self._processors:
            if self.strategy == "gp":
                self._processors[key] = OLGAPRO(
                    udf,
                    requirement=self.requirement,
                    random_state=self._rng,
                    **self._processor_kwargs,
                )
            else:  # hybrid
                self._processors[key] = HybridExecutor(
                    udf,
                    requirement=self.requirement,
                    random_state=self._rng,
                    **self._processor_kwargs,
                )
        processor = self._processors[key]
        if self._shared_store_resolver is not None and self.strategy != "mc":
            self._attach_shared_sync(udf)
        return processor

    def olgapro_for(self, udf: "UDF | str", create: bool = True) -> Optional[OLGAPRO]:
        """The OLGAPRO processor (and, through it, the emulator) behind ``udf``.

        The one place that looks through the hybrid selector.  ``None``
        under the ``"mc"`` strategy, which has no model.  ``create=False``
        only looks: ``None`` while no processor exists yet (a cold engine),
        and ``udf`` may then be just the UDF's name.
        """
        if self.strategy == "mc":
            return None
        if create:
            processor = self._processor_for(udf)
        else:
            processor = self._processors.get(getattr(udf, "name", udf))
        if isinstance(processor, HybridExecutor):
            return processor._olgapro
        return processor

    def _attach_shared_sync(self, udf: UDF) -> None:
        """Bind a live shared-model sync onto ``udf``'s processor (idempotent).

        Resolves the store through the installed ``_shared_store_resolver``
        and installs an :class:`~repro.core.shared_model.EmulatorSync` on
        the processor's ``model_sync`` seam, so its tuple boundaries become
        learning exchanges with the shared store.  A processor that already
        carries a sync keeps it.
        """
        target = self.olgapro_for(udf, create=False)
        if target.model_sync is not None:
            return
        assert self._shared_store_resolver is not None
        store = self._shared_store_resolver(udf)
        if store is None:
            return
        from repro.core.shared_model import EmulatorSync

        target.model_sync = EmulatorSync(
            store,
            target.emulator,
            max_training_points=int(target.max_training_points),
        )

    # -- plan-driven evaluation ---------------------------------------------------------
    def compute_with_plan(
        self,
        udf: UDF,
        input_distributions,
        plan: "ExecutionPlan | str | None" = None,
        predicate: SelectionPredicate | None = None,
    ) -> "QueryResult":
        """Evaluate ``udf`` on many tuples as one ExecutionPlan describes.

        The single plan-driven entry point: ``plan`` (or, when ``None``,
        the engine's default plan from construction, or the all-default
        per-tuple plan) is resolved to the composed executor stack and run
        over ``input_distributions``, optionally under a selection
        ``predicate``.

        Returns
        -------
        QueryResult
            Wrapping the per-tuple :class:`ComputedOutput` list (the
            result iterates/indexes like that list), plus the executed
            plan, per-phase timings and per-tuple
            :class:`~repro.engine.result.TupleVerdict` records.

        Raises
        ------
        QueryError
            As :class:`~repro.exceptions.PlanError` for an invalid plan,
            plus whatever the resolved executor raises.
        """
        from repro.engine.plan import ExecutionPlan, installed_retry, is_auto_plan
        from repro.engine.result import QueryResult, classify_outputs

        distributions = list(input_distributions)
        resolved_plan = plan if plan is not None else self.plan
        if resolved_plan is None:
            resolved_plan = ExecutionPlan()
        elif is_auto_plan(resolved_plan):
            resolved_plan = ExecutionPlan.auto(udf, len(distributions))
        executor = resolved_plan.resolve(self)
        timings = PhaseTimings()
        with installed_retry(udf, resolved_plan), timings.measure("execute"):
            if predicate is None:
                outputs = executor.compute_batch(udf, distributions)
            else:
                outputs = executor.compute_batch_with_predicate(
                    udf, distributions, predicate
                )
        timings.merge(executor.timings)
        return QueryResult(
            outputs,
            plan=resolved_plan,
            timings=timings,
            verdicts=classify_outputs(outputs, self.requirement.epsilon),
        )

    # -- quarantine ----------------------------------------------------------------
    @staticmethod
    def quarantined_output(
        error_bound: float = float("nan"), charged_time: float = 0.0
    ) -> ComputedOutput:
        """A ``failed`` output for a tuple whose evaluation stayed failing."""
        return ComputedOutput(
            distribution=None,
            error_bound=error_bound,
            existence_probability=1.0,
            dropped=False,
            udf_calls=0,
            charged_time=charged_time,
            failed=True,
        )

    # -- one tuple -----------------------------------------------------------------------
    def compute(self, udf: UDF, input_distribution: Distribution) -> ComputedOutput:
        """Full output distribution of ``udf`` on one tuple's input vector.

        The all-default plan's chunk of one: the same executor and tuple
        loop every plan runs, so under a quarantining retry policy a tuple
        whose evaluations stay failing yields a ``failed=True`` output
        (classified *degraded*) instead of raising.
        """
        from repro.engine.plan import ExecutionPlan

        return ExecutionPlan().resolve(self).compute_batch(udf, [input_distribution])[0]

    def compute_with_predicate(
        self, udf: UDF, input_distribution: Distribution, predicate: SelectionPredicate
    ) -> ComputedOutput:
        """Evaluate ``udf`` under a predicate, using online filtering (§2.2B, §5.5).

        :meth:`compute`'s chunk of one with the predicate's drop test; a
        quarantined tuple is a ``failed`` output (neither dropped nor kept —
        the predicate was never decided).
        """
        from repro.engine.plan import ExecutionPlan

        executor = ExecutionPlan().resolve(self)
        return executor.compute_batch_with_predicate(udf, [input_distribution], predicate)[0]

    def _mc_filter(
        self, udf: UDF, input_distribution: Distribution, predicate: SelectionPredicate
    ) -> ComputedOutput:
        """One tuple through :func:`~repro.core.mc_baseline.monte_carlo_with_filter`.

        Monte Carlo's selection path — the strategy, or the hybrid
        selector's choice — where stopping a tuple's sampling early really
        does save UDF calls.  Quarantine applies per tuple.
        """
        try:
            result = monte_carlo_with_filter(
                udf,
                input_distribution,
                predicate,
                requirement=self.requirement,
                random_state=self._rng,
            )
        except UDFError:
            if not quarantine_enabled(udf):
                raise
            return self.quarantined_output()
        return ComputedOutput(
            distribution=result.distribution,
            error_bound=self.requirement.epsilon,
            existence_probability=result.decision.estimate,
            dropped=result.dropped,
            udf_calls=result.udf_calls,
            charged_time=result.charged_time,
        )

    def _mc_decides(self, udf: UDF, input_distribution: Distribution) -> bool:
        """Whether plain Monte Carlo evaluates ``udf`` — the strategy, or the
        hybrid selector's (cached, first-tuple) choice."""
        if self.strategy == "mc":
            return True
        processor = self._processor_for(udf)
        return (
            isinstance(processor, HybridExecutor)
            and processor.decide(input_distribution).method == "mc"
        )
