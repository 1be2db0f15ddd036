"""The isomorphism-aware quotient cache (:mod:`repro.composer.cache`).

Three layers:

* **bit-identity** — a cached pipeline must reproduce the uncached one
  exactly: same per-step state/transition trajectory, same final CTMC, the
  same measure to the last bit (the broad randomised sweep lives in
  ``tests/differential/test_cache_differential.py``);
* **hits where expected** — the replicated DDS/RCS subtrees must actually
  be served from the cache, both within one run and across the runs sharing
  a cache (the evaluator's availability + no-repair reliability pipelines);
* **policy plumbing** — the ``cache=`` argument resolution and the
  persisted cost-parameter loop of the planner.
"""

import pytest

from repro.arcade.semantics import translate_model
from repro.casestudies.dds import DDSParameters, build_dds_evaluator, build_dds_model, dds_composition_order
from repro.casestudies.rcs import build_rcs_modular_evaluator
from repro.composer import Composer, QuotientCache, compose_model, resolve_cache
from repro.ctmc import steady_state_availability
from repro.planner import (
    CostParameters,
    load_cost_parameters,
    plan_order,
    save_cost_parameters,
)
from test_golden_regression import DDS_GOLDEN, RCS_GOLDEN


def _trajectory(system):
    return [
        (
            step.states_before_reduction,
            step.transitions_before_reduction,
            step.states_after_reduction,
            step.transitions_after_reduction,
            step.hidden_actions,
        )
        for step in system.statistics.steps
    ]


def _small_dds(num_clusters: int = 2):
    parameters = DDSParameters(num_clusters=num_clusters)
    translated = translate_model(build_dds_model(parameters))
    return translated, dds_composition_order(translated, parameters)


class TestCachedPipelineIsBitIdentical:
    @pytest.mark.parametrize("reduction", ["strong", "weak", "branching"])
    def test_small_dds_trajectory_and_measures(self, reduction):
        translated, order = _small_dds()
        off = compose_model(translated, order=order, reduction=reduction)
        on = compose_model(translated, order=order, reduction=reduction, cache="on")
        assert _trajectory(on) == _trajectory(off)
        assert on.ctmc.summary() == off.ctmc.summary()
        assert steady_state_availability(on.ctmc) == steady_state_availability(off.ctmc)
        assert on.statistics.cache_hits > 0

    def test_hit_steps_record_saved_seconds_and_sizes(self):
        translated, order = _small_dds()
        system = compose_model(translated, order=order, cache="on")
        hits = [step for step in system.statistics.steps if step.cache_hit]
        assert hits, "the second cluster/controller set must hit"
        for step in hits:
            assert step.reduce_seconds == 0.0
            assert step.saved_seconds >= 0.0
            assert step.states_before_reduction > 0
        assert system.statistics.cache_saved_seconds == pytest.approx(
            sum(step.saved_seconds for step in hits)
        )


class TestCacheSharing:
    def test_second_run_is_served_from_the_shared_cache(self):
        translated, order = _small_dds()
        cache = QuotientCache()
        composer = Composer(translated, order=order, cache=cache)
        first = composer.compose()
        second = composer.compose()
        assert _trajectory(second) == _trajectory(first)
        # Every step of the re-run is a hit: the cache survives compose().
        assert second.statistics.cache_hits == len(second.statistics.steps)

    def test_evaluator_shares_the_cache_across_pipelines(self):
        evaluator = build_dds_evaluator(DDSParameters(num_clusters=2), cache="on")
        reference = build_dds_evaluator(DDSParameters(num_clusters=2))
        assert evaluator.availability() == reference.availability()
        assert evaluator.reliability(10.0) == reference.reliability(10.0)
        assert evaluator.cache is not None
        assert evaluator.cache.hits > 0
        # Both the repairable and the no-repair pipeline used the same cache.
        assert evaluator.composed.cache is evaluator.composed_without_repair.cache

    def test_saved_seconds_reconcile_with_per_run_statistics(self):
        """Lifetime vs per-run savings agree (the double-counting bugfix).

        ``QuotientCache.saved_seconds`` is the *lifetime net* savings of the
        cache — for every hit, the stored entry's original cost minus the
        time spent serving the hit — and ``cache_saved_seconds`` is the same
        quantity per compose() run, so across any number of runs sharing one
        cache the lifetime total is exactly the sum of the per-run totals.
        """
        translated, order = _small_dds()
        cache = QuotientCache()
        composer = Composer(translated, order=order, cache=cache)
        first = composer.compose()
        second = composer.compose()
        per_run = (
            first.statistics.cache_saved_seconds
            + second.statistics.cache_saved_seconds
        )
        assert cache.saved_seconds == pytest.approx(per_run)
        assert cache.summary()["saved_seconds"] == round(cache.saved_seconds, 4)
        # Net semantics: a hit can never be booked as saving more than the
        # stored entry originally cost.
        for system in (first, second):
            for step in system.statistics.steps:
                if step.cache_hit:
                    assert step.saved_seconds >= 0.0

    def test_resolve_cache_policies(self):
        assert resolve_cache(None) is None
        assert resolve_cache("off") is None
        assert isinstance(resolve_cache("on"), QuotientCache)
        cache = QuotientCache()
        assert resolve_cache(cache) is cache
        with pytest.raises(ValueError):
            resolve_cache("sometimes")


@pytest.mark.slow
class TestCachedGoldens:
    """The pinned case-study numbers, with the cache enabled."""

    def test_dds_golden_with_cache(self):
        evaluator = build_dds_evaluator(cache="on")
        assert evaluator.availability() == pytest.approx(
            DDS_GOLDEN["availability"], rel=1e-12
        )
        statistics = evaluator.composed.statistics
        assert evaluator.ctmc.num_states == DDS_GOLDEN["ctmc_states"]
        assert evaluator.ctmc.num_transitions == DDS_GOLDEN["ctmc_transitions"]
        assert (
            statistics.largest_intermediate_states
            == DDS_GOLDEN["largest_intermediate_states"]
        )
        assert len(statistics.steps) == DDS_GOLDEN["composition_steps"]
        # 5 of 6 clusters and 1 of 2 controller sets are replicas: the cache
        # must serve their whole subtrees.
        assert statistics.cache_hits >= 20

    def test_rcs_golden_with_cache(self):
        modular = build_rcs_modular_evaluator(cache="on")
        pumps = modular.evaluators["pumps"]
        heat = modular.evaluators["heat_exchange"]
        assert pumps.ctmc.num_states == RCS_GOLDEN["pump_ctmc_states"]
        assert pumps.ctmc.num_transitions == RCS_GOLDEN["pump_ctmc_transitions"]
        assert heat.ctmc.num_states == RCS_GOLDEN["heat_ctmc_states"]
        assert heat.ctmc.num_transitions == RCS_GOLDEN["heat_ctmc_transitions"]
        assert pumps.unavailability() == pytest.approx(
            RCS_GOLDEN["pump_unavailability"], rel=1e-12
        )
        assert heat.unavailability() == pytest.approx(
            RCS_GOLDEN["heat_unavailability"], rel=1e-12
        )
        assert modular.cache is not None and modular.cache.hits > 0

    def test_dds_planned_order_with_cache_matches_golden(self):
        evaluator = build_dds_evaluator(order="auto", cache="on")
        assert evaluator.availability() == pytest.approx(
            DDS_GOLDEN["availability"], abs=1e-9
        )
        assert evaluator.ctmc.num_states == DDS_GOLDEN["ctmc_states"]
        assert evaluator.composed.statistics.cache_hits > 0


class TestCostParameterPersistence:
    def test_round_trip_and_planner_loading(self, tmp_path):
        path = tmp_path / "cost-parameters-test.json"
        parameters = CostParameters(sync_damping=0.42, hide_damping=0.84)
        save_cost_parameters(path, parameters, family="test", source="unit-test")
        assert load_cost_parameters(path) == parameters

        translated, _ = _small_dds()
        order_file, report_file = plan_order(translated, parameters=str(path))
        order_direct, report_direct = plan_order(translated, parameters=parameters)
        assert order_file == order_direct
        assert (
            report_file.predicted_peak_states == report_direct.predicted_peak_states
        )

    def test_composer_auto_accepts_parameter_files(self, tmp_path):
        path = tmp_path / "cost-parameters-test.json"
        save_cost_parameters(
            path, CostParameters(0.7, 0.7), family="test"
        )
        translated, _ = _small_dds()
        system = compose_model(translated, order="auto", plan_parameters=str(path))
        assert system.plan_report is not None
        assert system.ctmc.num_states > 0


class TestMergeFromRejection:
    """A cross-process digest collision must abort the import atomically."""

    def test_forced_collision_leaves_parent_entries_and_counters_untouched(self):
        translated, order = _small_dds()
        parent = QuotientCache()
        compose_model(translated, order=order, cache=parent)
        worker = QuotientCache()
        compose_model(translated, order=order, cache=worker)

        # Forge a collision: make some worker digest point at an automaton
        # that is NOT isomorphic to the parent's representative of the same
        # digest (different state count guarantees non-isomorphism).
        collision = None
        for parent_digest, (mine, _) in parent._leaf_representatives.items():
            for candidate, slots in worker._leaf_representatives.values():
                if candidate.num_states != mine.num_states:
                    collision = (parent_digest, (candidate, slots))
                    break
            if collision:
                break
        assert collision is not None, "need two non-isomorphic representatives"
        worker._leaf_representatives[collision[0]] = collision[1]

        entries_before = {key: id(entry) for key, entry in parent._entries.items()}
        representatives_before = {
            digest: id(rep[0]) for digest, rep in parent._leaf_representatives.items()
        }
        counters_before = parent.snapshot()

        assert parent.merge_from(worker) is False

        # Nothing imported: entries, witnesses and counters are
        # exactly the pre-merge state (identity, not just equality).
        assert {key: id(entry) for key, entry in parent._entries.items()} == entries_before
        assert {
            digest: id(rep[0]) for digest, rep in parent._leaf_representatives.items()
        } == representatives_before
        assert parent.snapshot() == counters_before

    def test_honest_merge_imports_and_sums_counters(self):
        translated, order = _small_dds()
        parent = QuotientCache()
        worker = QuotientCache()
        compose_model(translated, order=order, cache=worker)
        worker_counters = worker.snapshot()
        assert parent.merge_from(worker) is True
        assert parent.snapshot() == worker_counters
        assert set(parent._entries) == set(worker._entries)


class TestCostParameterFailureModes:
    def test_missing_file_raises_planner_error_naming_the_path(self, tmp_path):
        from repro.planner import PlannerError

        missing = tmp_path / "does-not-exist.json"
        with pytest.raises(PlannerError, match="does-not-exist.json"):
            load_cost_parameters(missing)

    def test_corrupt_json_raises_planner_error(self, tmp_path):
        from repro.planner import PlannerError

        path = tmp_path / "corrupt.json"
        path.write_text("{this is not json")
        with pytest.raises(PlannerError, match="corrupt.json.*not valid JSON"):
            load_cost_parameters(path)

    def test_missing_damping_keys_raise_planner_error(self, tmp_path):
        import json as json_module

        from repro.planner import PlannerError

        path = tmp_path / "partial.json"
        path.write_text(json_module.dumps({"sync_damping": 0.5}))
        with pytest.raises(PlannerError, match="sync_damping.*hide_damping"):
            load_cost_parameters(path)

    def test_non_numeric_values_raise_planner_error(self, tmp_path):
        import json as json_module

        from repro.planner import PlannerError

        path = tmp_path / "bad-types.json"
        path.write_text(
            json_module.dumps({"sync_damping": "high", "hide_damping": 0.5})
        )
        with pytest.raises(PlannerError, match="bad-types.json"):
            load_cost_parameters(path)

    def test_resolve_propagates_the_planner_error(self, tmp_path):
        from repro.planner import PlannerError, resolve_cost_parameters

        with pytest.raises(PlannerError):
            resolve_cost_parameters(str(tmp_path / "gone.json"))
