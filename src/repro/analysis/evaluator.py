"""End-to-end evaluation of Arcade models.

:class:`ArcadeEvaluator` is the main user-facing entry point of the library:
it runs the full pipeline of Section 4 of the paper (translate every building
block to its I/O-IMC, compose and aggregate them, extract the labelled CTMC)
and exposes the dependability measures of the case studies:

* steady-state availability / unavailability,
* reliability over a mission time — following the paper's definition for the
  distributed database system, the default assumes that *no component is
  ever repaired* (the repair units are removed for this analysis); the
  repair-aware first-passage variant is available as well,
* unreliability (the complement), and mean time to failure.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..arcade.model import ArcadeModel
from ..arcade.semantics import TranslatedModel, translate_model
from ..composer import (
    ComposedSystem,
    CompositionOrder,
    QuotientCache,
    compose_model,
    resolve_cache,
)
from ..ctmc import (
    CTMC,
    mean_time_to_failure,
    steady_state_availability,
    steady_state_unavailability,
    unreliability,
)
from ..errors import ModelError
from ..simulation import (
    ConfidenceInterval,
    RestartSimulator,
    VectorisedSimulator,
    batch_means,
)
from ..telemetry.trace import Telemetry, current_telemetry


@dataclass(frozen=True)
class EvaluationReport:
    """The headline numbers for one model (rows of the paper's Table 1)."""

    model_name: str
    availability: float
    unavailability: float
    reliability: float | None
    unreliability: float | None
    mission_time: float | None
    ctmc_states: int
    ctmc_transitions: int
    largest_intermediate_states: int
    largest_intermediate_transitions: int


class ArcadeEvaluator:
    """Evaluate an :class:`ArcadeModel` through the compositional pipeline.

    ``reduction`` selects the bisimulation variant applied between
    composition steps — ``"strong"`` (default), ``"branching"`` (the
    equivalence CADP's minimisation uses in the paper's tool chain),
    ``"weak"`` or ``"none"`` — and is forwarded to
    :class:`repro.composer.Composer`.  ``order`` accepts an explicit nested
    order, ``None`` for the greedy heuristic, or ``"auto"`` for the
    cost-model-guided planner (``plan_budget`` / ``plan_seed`` /
    ``plan_parameters`` tune its search; see :mod:`repro.planner`).
    ``cache`` enables the isomorphism-aware quotient cache
    (:mod:`repro.composer.cache`): ``"on"`` resolves to a single
    :class:`~repro.composer.QuotientCache` instance shared between the
    repairable and the no-repair pipelines, so replicated subtrees are
    composed once per evaluator, not once per measure.  ``telemetry``
    accepts a :class:`~repro.telemetry.Telemetry` session; the pipeline
    stages run inside its activation scope so composition, lumping and
    simulation spans land in its sink — purely observational, the computed
    measures are bit-identical with telemetry on, off or absent.
    """

    def __init__(
        self,
        model: ArcadeModel,
        *,
        order: CompositionOrder | str | None = None,
        reduction: str = "strong",
        max_gate_width: int = 2,
        cache: QuotientCache | str | None = None,
        plan_budget: int | None = None,
        plan_seed: int = 0,
        plan_parameters=None,
        jobs: int = 1,
        backend: str = "compose",
        auto_state_limit: float = 5e7,
        sim_seed: int = 0,
        sim_horizon: float = 10_000.0,
        sim_replications: int = 4096,
        sim_rel_error: float | None = None,
        sim_splitting: int = 4,
        sim_burn_in: float | None = None,
        sim_confidence: float = 0.99,
        telemetry: "Telemetry | None" = None,
        retry=None,
        state_budget: int | None = None,
    ) -> None:
        if backend not in ("compose", "simulate", "auto"):
            raise ModelError(
                f"unknown backend {backend!r} (use 'compose', 'simulate' or 'auto')"
            )
        self.backend = backend
        #: Flat state-space bound above which ``backend="auto"`` falls back
        #: to simulation (the product of the block state counts bounds what
        #: any composition order could be asked to explore).
        self.auto_state_limit = auto_state_limit
        self._resolved_backend: str | None = None if backend == "auto" else backend
        #: Simulation-backend knobs (ignored under ``backend="compose"``).
        self.sim_seed = sim_seed
        self.sim_horizon = sim_horizon
        self.sim_replications = sim_replications
        self.sim_rel_error = sim_rel_error
        self.sim_splitting = sim_splitting
        self.sim_burn_in = sim_burn_in if sim_burn_in is not None else sim_horizon / 20.0
        self.sim_confidence = sim_confidence
        #: Unavailability CI of the last simulation-backend estimate.
        self.simulation_interval: ConfidenceInterval | None = None
        self._simulated_unavailability: float | None = None
        self.model = model
        self.order = order
        self.reduction = reduction
        self.max_gate_width = max_gate_width
        #: The resolved quotient cache, shared by every pipeline this
        #: evaluator runs (``None`` when caching is off).
        self.cache: QuotientCache | None = resolve_cache(cache)
        #: Search budget / RNG seed forwarded to the planner when
        #: ``order="auto"`` (``None`` budget = the planner's default).
        self.plan_budget = plan_budget
        self.plan_seed = plan_seed
        self.plan_parameters = plan_parameters
        #: Worker processes for the composer's parallel subtree aggregation
        #: (``1`` = serial; forwarded as ``Composer(jobs=...)``).
        self.jobs = jobs
        #: Resilience bounds, forwarded to the composer: the worker-pool
        #: :class:`~repro.resilience.RetryPolicy` (``None`` = defaults) and
        #: the pre-reduction state ceiling per composition step.
        self.retry = retry
        self.state_budget = state_budget
        #: Explicit telemetry session: the pipeline stages run inside its
        #: activation scope, so composer/lumping/simulation spans land in it
        #: even when the caller did not activate the session itself.  With
        #: ``None`` the evaluator is observational-transparent: the ambient
        #: session (if any) is used, and with none active all
        #: instrumentation sites are no-ops.
        self.telemetry = telemetry
        self._translated: TranslatedModel | None = None
        self._composed: ComposedSystem | None = None
        self._composed_no_repair: ComposedSystem | None = None

    def _telemetry_scope(self):
        """Activation scope of the explicit session (no-op when ambient)."""
        if self.telemetry is not None and current_telemetry() is not self.telemetry:
            return self.telemetry.activate()
        return nullcontext()

    # ------------------------------------------------------------------ #
    # pipeline stages (lazily computed and cached)
    # ------------------------------------------------------------------ #
    @property
    def translated(self) -> TranslatedModel:
        """The building-block I/O-IMCs of the model."""
        if self._translated is None:
            self._translated = translate_model(
                self.model, max_gate_width=self.max_gate_width
            )
        return self._translated

    @property
    def resolved_backend(self) -> str:
        """The backend actually used: ``"compose"`` or ``"simulate"``.

        ``backend="auto"`` picks per model: compositional aggregation while
        the flat state-space bound (the product of the translated block
        state counts — an upper bound on what any composition order could
        be asked to explore) stays within ``auto_state_limit``, simulation
        beyond it.  The sweep engine uses this to route each parameter
        point to the cheaper backend.
        """
        if self._resolved_backend is None:
            bound = 1.0
            for block in self.translated.blocks.values():
                bound *= float(block.num_states)
                if bound > self.auto_state_limit:
                    break
            self._resolved_backend = (
                "simulate" if bound > self.auto_state_limit else "compose"
            )
        return self._resolved_backend

    def _compose(
        self, translated: TranslatedModel, order: CompositionOrder | str | None
    ) -> ComposedSystem:
        """Run the composer on ``translated`` with this evaluator's settings."""
        with self._telemetry_scope():
            return compose_model(
                translated,
                order=order,
                reduction=self.reduction,
                cache=self.cache,
                plan_budget=self.plan_budget,
                plan_seed=self.plan_seed,
                plan_parameters=self.plan_parameters,
                jobs=self.jobs,
                retry=self.retry,
                state_budget=self.state_budget,
            )

    @property
    def composed(self) -> ComposedSystem:
        """The composed system (I/O-IMC, CTMC and composition statistics)."""
        if self._composed is None:
            self._composed = self._compose(self.translated, self.order)
        return self._composed

    @property
    def ctmc(self) -> CTMC:
        """The labelled CTMC of the full (repairable) model."""
        if self.resolved_backend == "simulate":
            raise ModelError(
                "the simulate backend estimates measures statistically and "
                "builds no CTMC; use backend='compose' for state-space access"
            )
        return self.composed.ctmc

    @property
    def composed_without_repair(self) -> ComposedSystem:
        """The composed system of the model with all repair units removed."""
        if self._composed_no_repair is None:
            stripped = self.model.without_repair()
            translated = translate_model(stripped, max_gate_width=self.max_gate_width)
            order = self.order
            if order is not None and not isinstance(order, str):
                # Explicit orders lose the blocks that no longer exist;
                # "auto" passes through and re-plans on the stripped model.
                order = _filter_order(order, set(translated.blocks))
            self._composed_no_repair = self._compose(translated, order)
        return self._composed_no_repair

    # ------------------------------------------------------------------ #
    # simulation backend
    # ------------------------------------------------------------------ #
    def _simulate_unavailability(self) -> float:
        """Long-run unavailability via RESTART importance splitting.

        The time-average unavailability over ``[burn_in, horizon]``
        approaches the steady-state value the compositional backend computes
        once the burn-in passes the model's mixing time; the confidence
        interval of the estimate is kept in :attr:`simulation_interval`.
        RESTART with no splitting thresholds (e.g. a single-component cut)
        degenerates to plain vectorised Monte Carlo.
        """
        if self._simulated_unavailability is None:
            with self._telemetry_scope():
                simulator = RestartSimulator(
                    self.model, seed=self.sim_seed, splitting=self.sim_splitting
                )
                if self.sim_rel_error is not None:
                    report = simulator.estimate_until(
                        self.sim_horizon,
                        rel_error=self.sim_rel_error,
                        burn_in=self.sim_burn_in,
                        confidence=self.sim_confidence,
                        batch_size=max(self.sim_replications, 2),
                    )
                    interval = report.interval
                else:
                    interval = simulator.run(
                        self.sim_horizon,
                        max(self.sim_replications, 2),
                        burn_in=self.sim_burn_in,
                        confidence=self.sim_confidence,
                    ).interval
            self.simulation_interval = interval
            self._simulated_unavailability = interval.mean
        return self._simulated_unavailability

    # ------------------------------------------------------------------ #
    # measures
    # ------------------------------------------------------------------ #
    def availability(self) -> float:
        """Steady-state availability of the repairable system."""
        if self.resolved_backend == "simulate":
            return 1.0 - self._simulate_unavailability()
        return steady_state_availability(self.ctmc)

    def unavailability(self) -> float:
        """Steady-state unavailability of the repairable system."""
        if self.resolved_backend == "simulate":
            return self._simulate_unavailability()
        return steady_state_unavailability(self.ctmc)

    def reliability(self, mission_time: float, *, assume_no_repair: bool = True) -> float:
        """Probability of no system failure within ``mission_time``.

        With ``assume_no_repair`` (the default, matching the paper's Table 1)
        the repair units are removed before the analysis; otherwise the
        first-passage probability on the repairable model is returned.
        """
        return 1.0 - self.unreliability(mission_time, assume_no_repair=assume_no_repair)

    def unreliability(self, mission_time: float, *, assume_no_repair: bool = True) -> float:
        """Probability of at least one system failure within ``mission_time``."""
        if self.resolved_backend == "simulate":
            with self._telemetry_scope():
                target = self.model.without_repair() if assume_no_repair else self.model
                simulator = VectorisedSimulator(target, seed=self.sim_seed)
                batch = simulator.run_batch(mission_time, max(self.sim_replications, 2))
            failed = (~np.isnan(batch.first_failure_time)).astype(float)
            self.simulation_interval = batch_means(
                failed, confidence=self.sim_confidence
            )
            return self.simulation_interval.mean
        if assume_no_repair:
            chain = self.composed_without_repair.ctmc
        else:
            chain = self.ctmc
        return unreliability(chain, mission_time)

    def mean_time_to_failure(self, *, assume_no_repair: bool = False) -> float:
        """Expected time until the first system failure."""
        chain = (
            self.composed_without_repair.ctmc if assume_no_repair else self.ctmc
        )
        return mean_time_to_failure(chain)

    def report(self, mission_time: float | None = None) -> EvaluationReport:
        """Produce the bundle of headline numbers for this model."""
        statistics = self.composed.statistics
        reliability = None
        unreliability_value = None
        if mission_time is not None:
            unreliability_value = self.unreliability(mission_time)
            reliability = 1.0 - unreliability_value
        return EvaluationReport(
            model_name=self.model.name,
            availability=self.availability(),
            unavailability=self.unavailability(),
            reliability=reliability,
            unreliability=unreliability_value,
            mission_time=mission_time,
            ctmc_states=self.ctmc.num_states,
            ctmc_transitions=self.ctmc.num_transitions,
            largest_intermediate_states=statistics.largest_intermediate_states,
            largest_intermediate_transitions=statistics.largest_intermediate_transitions,
        )


def _filter_order(order: CompositionOrder, keep: set[str]) -> CompositionOrder:
    """Drop blocks that no longer exist (e.g. repair units) from an order."""
    filtered: list = []
    for entry in order:
        if isinstance(entry, str):
            if entry in keep:
                filtered.append(entry)
        else:
            nested = _filter_order(entry, keep)
            if nested:
                filtered.append(nested)
    return filtered


__all__ = ["ArcadeEvaluator", "EvaluationReport"]
