"""The pipeline config (:mod:`repro.config`) and its boundary checks.

A negative-fixture corpus: every bad setting, at every entry point that
accepts it, raises a typed :class:`~repro.errors.ArcadeError` naming the
problem — when the config is built, not at the first measure.
"""

import math

import numpy as np
import pytest

from repro import cli, quickstart_model
from repro.analysis import ArcadeEvaluator
from repro.arcade.semantics import translate_model
from repro.casestudies.dds import build_dds_evaluator
from repro.composer import Composer, resolve_cache
from repro.config import PipelineConfig, pipeline_config
from repro.errors import (
    AnalysisError,
    CompositionError,
    ModelError,
    ResilienceError,
)
from repro.simulation import run_until_relative_error
from repro.sweep import SweepConfig

#: (field, bad value, error type, message fragment)
BAD_SETTINGS = [
    ("reduction", "magic", CompositionError, "unknown reduction"),
    ("cache", "maybe", CompositionError, "unknown cache policy"),
    ("cache", 1, CompositionError, "unknown cache policy"),
    ("jobs", 0, CompositionError, "jobs must be >= 1"),
    ("jobs", 1.5, CompositionError, "jobs must be >= 1"),
    ("retry", 3, ResilienceError, "retry must be a RetryPolicy"),
    ("state_budget", 0, CompositionError, "state_budget must be >= 1"),
    ("backend", "oracle", ModelError, "unknown backend"),
    ("sim_seed", -1, AnalysisError, "sim_seed must be a non-negative integer"),
    ("sim_horizon", 0.0, AnalysisError, "sim_horizon must be positive and finite"),
    ("sim_horizon", -5.0, AnalysisError, "sim_horizon must be positive and finite"),
    ("sim_horizon", math.inf, AnalysisError, "sim_horizon must be positive and finite"),
    ("sim_horizon", math.nan, AnalysisError, "sim_horizon must be positive and finite"),
    ("sim_replications", 0, AnalysisError, "sim_replications must be at least 2"),
    ("sim_replications", 1, AnalysisError, "sim_replications must be at least 2"),
    ("sim_rel_error", -1.0, AnalysisError, "sim_rel_error must be positive and finite"),
    ("sim_rel_error", 0.0, AnalysisError, "sim_rel_error must be positive and finite"),
    ("sim_rel_error", math.nan, AnalysisError, "sim_rel_error must be positive and finite"),
    ("sim_rel_error", math.inf, AnalysisError, "sim_rel_error must be positive and finite"),
]

#: Every entry point that takes pipeline settings as keywords.
ENTRY_POINTS = {
    "PipelineConfig": lambda **bad: PipelineConfig(**bad),
    "SweepConfig": lambda **bad: SweepConfig(**bad),
    "ArcadeEvaluator": lambda **bad: ArcadeEvaluator(quickstart_model(), **bad),
    "Composer": lambda **bad: Composer(translate_model(quickstart_model()), **bad),
    "build_dds_evaluator": lambda **bad: build_dds_evaluator(**bad),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "field, value, error, fragment",
    BAD_SETTINGS,
    ids=[f"{field}={value!r}" for field, value, _, _ in BAD_SETTINGS],
)
def test_bad_setting_is_rejected_at_construction(entry, field, value, error, fragment):
    with pytest.raises(error, match=fragment):
        ENTRY_POINTS[entry](**{field: value})


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: resolve_cache("maybe"), CompositionError, "unknown cache policy"),
        (
            lambda: build_dds_evaluator(order="bogus"),
            CompositionError,
            "unknown order policy",
        ),
        (
            lambda: run_until_relative_error(np.zeros, rel_error=-1.0),
            AnalysisError,
            "rel_error must be positive",
        ),
        (
            lambda: run_until_relative_error(np.zeros, rel_error=math.nan),
            AnalysisError,
            "rel_error must be positive",
        ),
        (
            lambda: run_until_relative_error(np.zeros, rel_error=0.1, batch_size=1),
            AnalysisError,
            "batch_size must be at least 2",
        ),
    ],
    ids=["resolve_cache", "order_policy", "rel_error", "rel_error_nan", "batch_size"],
)
def test_bad_argument_raises_a_typed_error(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


class TestOneConfig:
    def test_keyword_settings_fold_into_the_config(self):
        evaluator = ArcadeEvaluator(quickstart_model(), reduction="weak", jobs=2)
        assert evaluator.config == PipelineConfig(reduction="weak", jobs=2)
        for name in ("reduction", "jobs", "backend", "sim_seed", "retry"):
            assert not hasattr(evaluator, name)

    def test_settings_override_an_explicit_config(self):
        base = PipelineConfig(reduction="branching", sim_replications=64)
        config = pipeline_config(base, sim_seed=7)
        assert (config.reduction, config.sim_replications, config.sim_seed) == (
            "branching",
            64,
            7,
        )
        assert pipeline_config(base) is base

    def test_unknown_setting_is_a_type_error(self):
        with pytest.raises(TypeError):
            ArcadeEvaluator(quickstart_model(), plan_budget=32)

    def test_cache_resolves_once_per_owner(self):
        config = PipelineConfig(cache="on")
        first = ArcadeEvaluator(quickstart_model(), config=config)
        second = ArcadeEvaluator(quickstart_model(), config=config)
        assert first.cache is not None and first.cache is not second.cache
        assert first.composed.cache is first.cache
        assert first.composed_without_repair.cache is first.cache
        assert config.cache == "on"

    def test_sweep_config_keeps_its_own_defaults(self):
        config = SweepConfig()
        assert (config.cache, config.sim_replications) == ("on", 256)
        assert PipelineConfig().sim_replications == 4096


def test_sweep_cli_order_reaches_every_point(monkeypatch, tmp_path):
    """``--sweep --order auto`` composes every point under the planner's order."""
    import repro.planner

    planned = []
    plan_order = repro.planner.plan_order

    def spy(translated, **keywords):
        planned.append(len(translated.blocks))
        return plan_order(translated, **keywords)

    monkeypatch.setattr(repro.planner, "plan_order", spy)
    small = ["--clusters", "1", "--disks-per-cluster", "2", "--no-importance"]
    grid = ["--sweep-grid", "disk_failure_rate=1e-4", "--sweep-out"]
    cli.main(["dds", "--sweep", *small, *grid, str(tmp_path / "hier")])
    assert planned == []
    cli.main(["dds", "--sweep", "--order", "auto", *small, *grid, str(tmp_path / "auto")])
    # The grid point, the base point and the two finite-difference points of
    # each of the three rate axes, each planned once.
    assert len(planned) == 8
