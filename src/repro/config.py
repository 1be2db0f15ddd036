"""One frozen, validated configuration for the whole evaluation pipeline.

Arcade is one tool chain — translate every block to an I/O-IMC, compose and
minimise, extract and solve the CTMC — and :class:`PipelineConfig` holds
that chain's settings in one place.  Every layer reads the same object:
:class:`~repro.composer.Composer` and
:func:`~repro.composer.compose_model` read the reduction, cache, worker
and resilience fields, :class:`~repro.analysis.ArcadeEvaluator` adds the
backend and simulation fields, and :class:`~repro.sweep.SweepConfig`
extends it with the sweep-only fields.  A layer passes the object down
instead of re-listing its fields, so a setting has one name, one default
and one validation.

``__post_init__`` is that validation: a bad value raises a typed
:class:`~repro.errors.ArcadeError` when the config is built, not at the
first measure.  The layers that take a config also take its fields as
keywords (``ArcadeEvaluator(model, reduction="branching")``); those are
folded into the config with :func:`dataclasses.replace`, which validates
again.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .errors import AnalysisError, CompositionError, ModelError, ResilienceError

if TYPE_CHECKING:  # pragma: no cover - the composer imports this module
    from .composer.cache import QuotientCache
    from .resilience.retry import RetryPolicy

#: The bisimulation variants the reduction pipeline can apply between steps.
REDUCTION_MODES = ("strong", "weak", "branching", "none")
#: ``compose``: compositional aggregation; ``simulate``: RESTART simulation;
#: ``auto``: per model, by the flat state-space bound.
BACKENDS = ("compose", "simulate", "auto")
#: The cache policies besides an existing :class:`QuotientCache` instance.
CACHE_POLICIES = ("on", "off")


@dataclass(frozen=True)
class PipelineConfig:
    """The settings of one evaluation pipeline.

    Attributes
    ----------
    reduction:
        Bisimulation applied to every intermediate model: ``"strong"``
        (always sound), ``"branching"`` (the equivalence CADP's
        minimisation uses in the paper's tool chain), ``"weak"`` or
        ``"none"``.
    cache:
        Isomorphism-aware quotient cache: ``"on"`` (a fresh
        :class:`~repro.composer.QuotientCache` per owning layer),
        ``"off"``/``None`` (no memoisation) or an existing instance to share
        hits across runs.  :meth:`resolved` turns the policy into the
        instance.
    jobs:
        Worker processes for parallel subtree aggregation (``1`` = serial).
    retry:
        :class:`~repro.resilience.RetryPolicy` of the parallel dispatch
        (``None`` = the policy's defaults).
    state_budget:
        Ceiling on any composition step's pre-reduction product, in states
        (``None`` = unbounded).
    backend:
        ``"compose"``, ``"simulate"`` or ``"auto"`` (see :data:`BACKENDS`).
    sim_seed, sim_horizon, sim_replications, sim_rel_error:
        Simulation backend: RNG seed, trajectory horizon in hours, roots per
        batch, and the target relative CI half-width (``None`` = one fixed
        batch).
    """

    reduction: str = "strong"
    cache: "QuotientCache | str | None" = None
    jobs: int = 1
    retry: "RetryPolicy | None" = None
    state_budget: int | None = None
    backend: str = "compose"
    sim_seed: int = 0
    sim_horizon: float = 10_000.0
    sim_replications: int = 4096
    sim_rel_error: float | None = None

    def __post_init__(self) -> None:
        # Late imports: the composer and the resilience layer import this
        # module, so they cannot be imported at its top.
        from .composer.cache import QuotientCache
        from .resilience.retry import RetryPolicy

        if self.reduction not in REDUCTION_MODES:
            raise CompositionError(
                f"unknown reduction {self.reduction!r} (expected one of {REDUCTION_MODES})"
            )
        if not (
            self.cache is None
            or isinstance(self.cache, QuotientCache)
            or (isinstance(self.cache, str) and self.cache in CACHE_POLICIES)
        ):
            raise CompositionError(
                f'unknown cache policy {self.cache!r} (expected "on", "off", None '
                "or a QuotientCache instance)"
            )
        if not isinstance(self.jobs, numbers.Integral) or self.jobs < 1:
            raise CompositionError(f"jobs must be >= 1, got {self.jobs}")
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ResilienceError(f"retry must be a RetryPolicy or None, got {self.retry!r}")
        if self.state_budget is not None and (
            not isinstance(self.state_budget, numbers.Integral) or self.state_budget < 1
        ):
            raise CompositionError(f"state_budget must be >= 1, got {self.state_budget}")
        if self.backend not in BACKENDS:
            raise ModelError(
                f"unknown backend {self.backend!r} (use 'compose', 'simulate' or 'auto')"
            )
        if not isinstance(self.sim_seed, numbers.Integral) or self.sim_seed < 0:
            raise AnalysisError(f"sim_seed must be a non-negative integer, got {self.sim_seed}")
        if not (math.isfinite(self.sim_horizon) and self.sim_horizon > 0):
            raise AnalysisError(
                f"sim_horizon must be positive and finite, got {self.sim_horizon}"
            )
        if not isinstance(self.sim_replications, numbers.Integral) or self.sim_replications < 2:
            raise AnalysisError(
                f"sim_replications must be at least 2, got {self.sim_replications}"
            )
        if self.sim_rel_error is not None and not (
            math.isfinite(self.sim_rel_error) and self.sim_rel_error > 0
        ):
            raise AnalysisError(
                f"sim_rel_error must be positive and finite, got {self.sim_rel_error}"
            )

    def resolved(self) -> "PipelineConfig":
        """This config with its cache policy turned into the instance it names.

        ``"on"`` becomes a fresh :class:`~repro.composer.QuotientCache` and
        ``"off"`` becomes ``None``; an instance (or ``None``) is kept, and
        then ``self`` is returned unchanged.  The layer that owns a cache
        resolves once and passes the resolved config down, so every pipeline
        below it shares one instance.
        """
        from .composer.cache import resolve_cache

        cache = resolve_cache(self.cache)
        if cache is self.cache:
            return self
        return dataclasses.replace(self, cache=cache)


def pipeline_config(config: PipelineConfig | None = None, **settings: Any) -> PipelineConfig:
    """``config`` (default: all defaults) with the keyword ``settings`` folded in.

    The keyword sugar of the layers that take a config
    (``ArcadeEvaluator(model, reduction="weak")``) goes through here; an
    unknown name raises :class:`TypeError` and a bad value the field's typed
    error.
    """
    if config is None:
        return PipelineConfig(**settings)
    return dataclasses.replace(config, **settings) if settings else config


__all__ = [
    "BACKENDS",
    "CACHE_POLICIES",
    "PipelineConfig",
    "REDUCTION_MODES",
    "pipeline_config",
]
