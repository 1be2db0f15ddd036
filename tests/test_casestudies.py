"""Tests for the paper's case studies (Section 5): DDS and RCS."""

import logging

import pytest

from repro.casestudies import dds, rcs
from repro.casestudies.dds import (
    DDSParameters,
    MISSION_TIME_HOURS,
    build_dds_model,
)
from repro.casestudies.rcs import (
    MISSION_TIME_HOURS as RCS_MISSION_TIME,
    RCSParameters,
    build_rcs_model,
)


@pytest.fixture(scope="module")
def dds_modular(dds_modular_evaluator):
    """One shared modular DDS evaluation: building it is the expensive part."""
    return dds_modular_evaluator


@pytest.fixture(scope="module")
def rcs_modular(rcs_modular_evaluator):
    """One shared modular RCS evaluation; its sub-evaluators are the pump and
    heat-exchange pipelines, so the subsystem tests reuse them instead of
    re-running identical compositions."""
    return rcs_modular_evaluator


class TestDDSModel:
    def test_component_counts(self):
        model = build_dds_model()
        summary = model.summary()
        # 2 processors + 4 controllers + 24 disks.
        assert summary["components"] == 30
        # processor RU + 2 controller-set RUs + 6 cluster RUs.
        assert summary["repair_units"] == 9
        assert summary["spare_units"] == 1
        model.validate()

    def test_parametric_generator(self):
        small = build_dds_model(DDSParameters(num_clusters=2, disks_per_cluster=3))
        assert small.summary()["components"] == 2 + 4 + 6

    def test_modular_availability_matches_table1(self, dds_modular):
        assert dds_modular.availability() == pytest.approx(0.999997, abs=1e-6)

    def test_modular_reliability_matches_table1(self, dds_modular):
        reliability = dds_modular.reliability(MISSION_TIME_HOURS, assume_no_repair=True)
        assert reliability == pytest.approx(0.402018, abs=5e-6)


@pytest.mark.slow
class TestDDSFullComposition:
    """The full compositional-aggregation run of Section 5.1.2 (slower test)."""

    @pytest.fixture(scope="class")
    def evaluator(self, dds_full_evaluator):
        return dds_full_evaluator

    def test_ctmc_size_matches_paper(self, evaluator):
        """The paper reports a final CTMC of 2,100 states and 15,120 transitions."""
        evaluator.availability()
        assert evaluator.ctmc.num_states == 2100
        assert evaluator.ctmc.num_transitions == 15120

    def test_availability_matches_table1(self, evaluator):
        assert evaluator.availability() == pytest.approx(0.999997, abs=1e-6)

    def test_reliability_matches_table1(self, evaluator):
        reliability = evaluator.reliability(MISSION_TIME_HOURS)
        assert reliability == pytest.approx(0.402018, abs=5e-6)

    def test_full_composition_agrees_with_modular(self, evaluator, dds_modular):
        assert evaluator.availability() == pytest.approx(
            dds_modular.availability(), rel=1e-9
        )


class TestRCSModel:
    @pytest.fixture(scope="class")
    def pumps(self, rcs_modular):
        # Identical pipeline to build_pump_evaluator(): same model, same
        # hierarchical order (see build_rcs_modular_evaluator).
        return rcs_modular.evaluators["pumps"]

    @pytest.fixture(scope="class")
    def heat(self, rcs_modular):
        return rcs_modular.evaluators["heat_exchange"]

    def test_full_model_validates(self):
        model = build_rcs_model()
        model.validate()
        # 2 pumps + 2 filters + 4 line valves + HX + HX filter + 2 HX valves + 2 MVs
        assert model.summary()["components"] == 14

    def test_pump_subsystem_measures(self, pumps):
        unavailability = pumps.unavailability()
        # Both pump lines must be down simultaneously: a very rare event, but
        # strictly positive and far below a single line's unavailability.
        assert 0.0 < unavailability < 1e-6

    def test_heat_exchange_subsystem_measures(self, heat):
        assert 0.0 < heat.unavailability() < 1e-9

    def test_pump_subsystem_dominates_state_space(self, pumps, heat):
        """Section 5.2.2: the pump subsystem CTMC is much larger than the HX one."""
        pumps.availability()
        heat.availability()
        assert pumps.ctmc.num_states > 10 * heat.ctmc.num_states

    @pytest.mark.slow
    def test_modular_measures_match_paper_shape(self, rcs_modular):
        """Section 5.2.2 reports ~6.5e-10 unavailability and ~5.3e-9 unreliability at 50 h."""
        modular = rcs_modular
        from repro.ctmc import point_availability

        unavailability_50h = 1.0 - (
            (point_availability(modular.evaluators["pumps"].ctmc, RCS_MISSION_TIME))
            * (point_availability(modular.evaluators["heat_exchange"].ctmc, RCS_MISSION_TIME))
        )
        unreliability_50h = modular.unreliability(RCS_MISSION_TIME)
        # Same order of magnitude and same ordering as the paper's numbers.
        assert 1e-10 < unavailability_50h < 2e-9
        assert 1e-9 < unreliability_50h < 2e-8
        assert unreliability_50h > unavailability_50h

    def test_erlang_pumps_have_load_sharing(self):
        model = build_rcs_model()
        pump = model.components["P1"]
        assert pump.time_to_failure_of(1).mean() == pytest.approx(
            pump.time_to_failure_of(0).mean() / 2.0
        )


@pytest.fixture
def cli_output(caplog):
    """Collect what the case-study CLIs log (their logger does not propagate)."""
    logger = logging.getLogger("repro.cli")
    logger.addHandler(caplog.handler)
    yield caplog
    logger.removeHandler(caplog.handler)


class TestCaseStudyCLIs:
    def test_dds_cli_runs_a_small_instance(self, cli_output):
        dds.main(["--clusters", "1", "--disks-per-cluster", "2", "--reduction", "weak"])
        assert "reduction=weak, order=hierarchical" in cli_output.text
        assert "final CTMC: 30 states / 112 transitions" in cli_output.text

    def test_rcs_cli_runs(self, cli_output):
        rcs.main(["--cache", "off"])
        assert "pump subsystem CTMC: 1164 states / 8928 transitions" in cli_output.text
        assert "cache:" not in cli_output.text

    def test_cluster_options_are_dds_only(self):
        with pytest.raises(SystemExit):
            rcs.main(["--clusters", "1"])
