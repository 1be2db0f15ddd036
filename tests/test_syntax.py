"""Tests for the textual Arcade syntax (parser and serialiser, Section 3.5)."""

import pytest

from repro.arcade import RepairStrategy
from repro.arcade.syntax import (
    parse_distribution,
    parse_model,
    parse_number,
    serialize_model,
)
from repro.errors import ModelError, SyntaxParseError

PROCESSOR_SPEC = """
# Processors of the distributed database system (Section 5.1.1)
COMPONENT: pp
TIME-TO-FAILURE: exp(1/2000)
TIME-TO-REPAIR: exp(1)

COMPONENT: ps
OPERATIONAL MODES: (inactive, active)
TIME-TO-FAILURES: exp(1/2000), exp(1/2000)
TIME-TO-REPAIR: exp(1)

SMU: p_smu
COMPONENTS: pp, ps

REPAIR UNIT: p_rep
COMPONENTS: pp, ps
STRATEGY: FCFS

SYSTEM DOWN: pp.down and ps.down
"""

RCS_PUMP_SPEC = """
COMPONENT: P1
OPERATIONAL MODES: (normal, degraded)
NORMAL-TO-DEGRADED: P2.down
TIME-TO-FAILURES: erlang(2, 5.44e-6), erlang(2, 10.88e-6)
TIME-TO-REPAIR: erlang(2, 0.1)

COMPONENT: P2
OPERATIONAL MODES: (normal, degraded)
NORMAL-TO-DEGRADED: P1.down
TIME-TO-FAILURES: erlang(2, 5.44e-6), erlang(2, 10.88e-6)
TIME-TO-REPAIR: erlang(2, 0.1)

COMPONENT: VIP1
TIME-TO-FAILURE: exp(8.4e-8)
FAILURE MODE PROBABILITIES: 0.5, 0.5
TIME-TO-REPAIRS: exp(0.1), exp(0.1)

REPAIR UNIT: P_rep
COMPONENTS: P1, P2
STRATEGY: FCFS

REPAIR UNIT: VIP1_rep
COMPONENTS: VIP1
STRATEGY: Dedicated

SYSTEM DOWN: (P1.down and P2.down) or VIP1.down.m2
"""


class TestNumberAndDistributionParsing:
    def test_fraction(self):
        assert parse_number("1/2000") == pytest.approx(0.0005)

    def test_scientific(self):
        assert parse_number("5.44e-6") == pytest.approx(5.44e-6)

    def test_bad_number(self):
        with pytest.raises(SyntaxParseError):
            parse_number("one half")

    def test_exponential(self):
        distribution = parse_distribution("exp(0.25)")
        assert distribution.mean() == pytest.approx(4.0)

    def test_erlang(self):
        distribution = parse_distribution("erlang(2, 0.1)")
        assert distribution.num_phases == 2
        assert distribution.mean() == pytest.approx(20.0)

    def test_unknown_distribution(self):
        with pytest.raises(SyntaxParseError):
            parse_distribution("weibull(1, 2)")

    @pytest.mark.parametrize(
        "term", ["exp(inf)", "exp(nan)", "exp(-inf)", "erlang(2, inf)"]
    )
    def test_non_finite_rate_rejected(self, term):
        with pytest.raises(ModelError):
            parse_distribution(term)

    def test_non_finite_rate_rejected_in_model_text(self):
        text = PROCESSOR_SPEC.replace("TIME-TO-REPAIR: exp(1)", "TIME-TO-REPAIR: exp(inf)", 1)
        with pytest.raises(ModelError):
            parse_model(text)


class TestModelParsing:
    def test_processor_spec(self):
        model = parse_model(PROCESSOR_SPEC, name="dds_processors")
        assert set(model.components) == {"pp", "ps"}
        assert model.repair_units["p_rep"].strategy is RepairStrategy.FCFS
        assert model.spare_units["p_smu"].primary == "pp"
        assert model.components["ps"].is_spare_capable

    def test_rcs_pump_spec(self):
        model = parse_model(RCS_PUMP_SPEC)
        pump = model.components["P1"]
        assert pump.time_to_failure_of(0).num_phases == 2
        assert pump.time_to_failure_of(1).mean() == pytest.approx(2 / 10.88e-6)
        valve = model.components["VIP1"]
        assert valve.num_failure_modes == 2

    def test_comments_and_blank_lines_ignored(self):
        model = parse_model("# comment\n\n" + PROCESSOR_SPEC)
        assert len(model.components) == 2

    def test_missing_ttf_rejected(self):
        with pytest.raises(SyntaxParseError):
            parse_model("COMPONENT: x\nTIME-TO-REPAIR: exp(1)\nSYSTEM DOWN: x.down")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SyntaxParseError):
            parse_model(
                "COMPONENT: x\nTIME-TO-FAILURE: exp(1)\nCOLOUR: blue\nSYSTEM DOWN: x.down"
            )

    def test_missing_colon_rejected(self):
        with pytest.raises(SyntaxParseError):
            parse_model("COMPONENT pp")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SyntaxParseError):
            parse_model(
                "COMPONENT: x\nTIME-TO-FAILURE: exp(1)\nTIME-TO-FAILURE: exp(2)\n"
                "SYSTEM DOWN: x.down"
            )

    def test_validation_runs_after_parsing(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            parse_model("COMPONENT: x\nTIME-TO-FAILURE: exp(1)\nSYSTEM DOWN: ghost.down")


class TestRoundTrip:
    def test_processor_round_trip(self):
        model = parse_model(PROCESSOR_SPEC)
        text = serialize_model(model)
        reparsed = parse_model(text)
        assert set(reparsed.components) == set(model.components)
        assert set(reparsed.repair_units) == set(model.repair_units)
        assert str(reparsed.system_down) == str(model.system_down)

    def test_rcs_round_trip(self):
        model = parse_model(RCS_PUMP_SPEC)
        reparsed = parse_model(serialize_model(model))
        assert reparsed.components["P1"].operational_modes[0].modes == ("normal", "degraded")
        assert reparsed.components["VIP1"].failure_mode_probabilities == (0.5, 0.5)

    def test_case_study_models_serialise(self):
        from repro.casestudies.dds import build_dds_model
        from repro.casestudies.rcs import build_rcs_model

        for model in (build_dds_model(), build_rcs_model()):
            text = serialize_model(model)
            reparsed = parse_model(text, name=model.name)
            assert set(reparsed.components) == set(model.components)

    def test_evaluation_equivalence_after_round_trip(self):
        """Parsing the serialised model yields the same availability."""
        from repro.analysis import ArcadeEvaluator
        from repro import quickstart_model

        original = quickstart_model()
        reparsed = parse_model(serialize_model(original), name="round_trip")
        assert ArcadeEvaluator(reparsed).availability() == pytest.approx(
            ArcadeEvaluator(original).availability(), rel=1e-12
        )
