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
from ..composer import ComposedSystem, CompositionOrder, QuotientCache, compose_model
from ..config import PipelineConfig, pipeline_config
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


#: Flat state-space bound above which ``backend="auto"`` simulates instead
#: of composing (the product of the block state counts bounds what any
#: composition order could be asked to explore).
AUTO_STATE_LIMIT = 5e7
#: Splitting factor of every RESTART threshold of the simulation backend.
SIM_SPLITTING = 4
#: Confidence level of the simulation backend's intervals.
SIM_CONFIDENCE = 0.99


class ArcadeEvaluator:
    """Evaluate an :class:`ArcadeModel` through the compositional pipeline.

    ``config`` is the :class:`~repro.config.PipelineConfig` of every
    pipeline this evaluator runs; keyword ``settings`` (``reduction="weak"``,
    ``cache="on"``, ``backend="simulate"``, ...) are folded into it.  The
    cache policy is resolved once, so ``cache="on"`` gives a single
    :class:`~repro.composer.QuotientCache` instance shared between the
    repairable and the no-repair pipelines: replicated subtrees are composed
    once per evaluator, not once per measure.

    ``order`` stays beside the config because an explicit order is a
    function of the model's blocks: it accepts an explicit nested order,
    ``None`` for the greedy heuristic, or ``"auto"`` for the
    cost-model-guided planner (see :mod:`repro.planner`).  ``telemetry``
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
        config: PipelineConfig | None = None,
        telemetry: "Telemetry | None" = None,
        **settings,
    ) -> None:
        #: The pipeline settings, with the quotient cache resolved.
        self.config = pipeline_config(config, **settings).resolved()
        self._resolved_backend: str | None = (
            None if self.config.backend == "auto" else self.config.backend
        )
        #: Unavailability CI of the last simulation-backend estimate.
        self.simulation_interval: ConfidenceInterval | None = None
        self._simulated_unavailability: float | None = None
        self.model = model
        self.order = order
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

    @property
    def cache(self) -> QuotientCache | None:
        """The quotient cache shared by every pipeline this evaluator runs
        (``None`` when caching is off)."""
        return self.config.cache

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
            self._translated = translate_model(self.model)
        return self._translated

    @property
    def resolved_backend(self) -> str:
        """The backend actually used: ``"compose"`` or ``"simulate"``.

        ``backend="auto"`` picks per model: compositional aggregation while
        the flat state-space bound (the product of the translated block
        state counts — an upper bound on what any composition order could
        be asked to explore) stays within :data:`AUTO_STATE_LIMIT`, simulation
        beyond it.  The sweep engine uses this to route each parameter
        point to the cheaper backend.
        """
        if self._resolved_backend is None:
            bound = 1.0
            for block in self.translated.blocks.values():
                bound *= float(block.num_states)
                if bound > AUTO_STATE_LIMIT:
                    break
            self._resolved_backend = "simulate" if bound > AUTO_STATE_LIMIT else "compose"
        return self._resolved_backend

    def _compose(
        self, translated: TranslatedModel, order: CompositionOrder | str | None
    ) -> ComposedSystem:
        """Run the composer on ``translated`` with this evaluator's settings."""
        with self._telemetry_scope():
            return compose_model(translated, order=order, config=self.config)

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
            translated = translate_model(stripped)
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
            config = self.config
            # The first 5% of every trajectory is discarded as burn-in.
            burn_in = config.sim_horizon / 20.0
            with self._telemetry_scope():
                simulator = RestartSimulator(
                    self.model, seed=config.sim_seed, splitting=SIM_SPLITTING
                )
                if config.sim_rel_error is not None:
                    interval = simulator.estimate_until(
                        config.sim_horizon,
                        rel_error=config.sim_rel_error,
                        burn_in=burn_in,
                        confidence=SIM_CONFIDENCE,
                        batch_size=config.sim_replications,
                    ).interval
                else:
                    interval = simulator.run(
                        config.sim_horizon,
                        config.sim_replications,
                        burn_in=burn_in,
                        confidence=SIM_CONFIDENCE,
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
                simulator = VectorisedSimulator(target, seed=self.config.sim_seed)
                batch = simulator.run_batch(mission_time, self.config.sim_replications)
            failed = (~np.isnan(batch.first_failure_time)).astype(float)
            self.simulation_interval = batch_means(failed, confidence=SIM_CONFIDENCE)
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
