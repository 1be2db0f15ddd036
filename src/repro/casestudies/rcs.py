"""The Reactor Cooling System (RCS) case study (Section 5.2).

The cooling system consists of two parallel pump lines, a heat exchanger
with its accompanying filter and valves, and a bypass with two motor-driven
valves.  The pumps share the load: when one pump fails the other switches to
a degraded operational mode with twice the failure rate (Erlang-2 times in
both modes).  The two pumps share one FCFS repair unit; every other
component has a dedicated repair unit.

The system is down when no pump line is operational, or when both the heat
exchanging unit and the bypass are down.  A pump line is down when its pump,
its filter or one of its control valves (stuck-closed only) is down; the
heat exchanging unit is down when the heat exchanger, its filter or one of
its valves fails (either mode); the bypass is down when one of its
motor-driven valves is stuck-closed.

Component counts per line/unit are not fully enumerated in the paper (nor in
its sources [7, 22]); the configuration below — two control valves per pump
line, one filter and two valves for the heat exchanging unit, two
motor-driven valves for the bypass — is the documented substitution (see
DESIGN.md).  Rates follow Section 5.2.1:

* pumps: Erlang-2 failures with phase rate ``5.44e-6`` (doubled when
  degraded), Erlang-2 repairs with phase rate ``0.1``;
* valves: two equally likely failure modes (stuck-open / stuck-closed) with
  a total failure rate of ``8.4e-8``; repairs ``exp(0.1)`` per mode;
* filters: failures ``exp(2.19e-6)``, repairs ``exp(0.1)``;
* heat exchanger: failures ``exp(1.14e-6)``, repairs ``exp(0.1)``.

Following the paper, the analysis uses modularization: the pump subsystem
and the heat-exchanger subsystem share no components, so their CTMCs are
generated and solved separately and the results are combined through the
system-level fault tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import ModularEvaluator
from ..arcade import (
    ArcadeModel,
    BasicComponent,
    RepairStrategy,
    RepairUnit,
    down,
)
from ..arcade.expressions import And, Expression, Literal, Or
from ..arcade.operational_modes import degradation_group
from ..arcade.semantics import TranslatedModel
from ..composer import CompositionOrder, hierarchical_order, order_hook
from ..config import PipelineConfig
from ..distributions import Erlang, Exponential

#: Phase rate of the Erlang-2 pump failure distribution (per hour).
PUMP_PHASE_RATE = 5.44e-6
#: Phase rate of the Erlang-2 pump repair distribution (per hour).
PUMP_REPAIR_PHASE_RATE = 0.1
#: Total failure rate of a valve (both failure modes together, per hour).
VALVE_FAILURE_RATE = 8.4e-8
#: Failure rate of a filter (per hour).
FILTER_FAILURE_RATE = 2.19e-6
#: Failure rate of the heat exchanger (per hour).
HEAT_EXCHANGER_FAILURE_RATE = 1.14e-6
#: Repair rate of valves, filters and the heat exchanger (per hour).
COMPONENT_REPAIR_RATE = 0.1
#: Mission time used in Section 5.2.2 (hours).
MISSION_TIME_HOURS = 50.0

#: Failure-mode tag of a stuck-open valve.
STUCK_OPEN = "m1"
#: Failure-mode tag of a stuck-closed valve.
STUCK_CLOSED = "m2"


@dataclass(frozen=True)
class RCSParameters:
    """Configuration of the reactor cooling system."""

    valves_per_pump_line: int = 2
    valves_in_heat_exchange_unit: int = 2
    motor_driven_valves: int = 2
    pump_phase_rate: float = PUMP_PHASE_RATE
    degraded_rate_factor: float = 2.0
    valve_failure_rate: float = VALVE_FAILURE_RATE
    filter_failure_rate: float = FILTER_FAILURE_RATE
    heat_exchanger_failure_rate: float = HEAT_EXCHANGER_FAILURE_RATE
    repair_rate: float = COMPONENT_REPAIR_RATE


# --------------------------------------------------------------------------- #
# component factories
# --------------------------------------------------------------------------- #
def _valve(name: str, parameters: RCSParameters) -> BasicComponent:
    """A valve with two equally likely failure modes (Section 5.2.1, item 2)."""
    return BasicComponent(
        name,
        time_to_failures=Exponential(parameters.valve_failure_rate),
        failure_mode_probabilities=(0.5, 0.5),
        time_to_repairs=[
            Exponential(parameters.repair_rate),
            Exponential(parameters.repair_rate),
        ],
    )


def _filter(name: str, parameters: RCSParameters) -> BasicComponent:
    """A filter that is either free ("up") or blocked ("down")."""
    return BasicComponent(
        name,
        time_to_failures=Exponential(parameters.filter_failure_rate),
        time_to_repairs=Exponential(parameters.repair_rate),
    )


def _pump(name: str, other_pump: str, parameters: RCSParameters) -> BasicComponent:
    """A load-sharing pump with normal/degraded modes (Section 5.2.1, item 1)."""
    return BasicComponent(
        name,
        operational_modes=[degradation_group(down(other_pump))],
        time_to_failures=[
            Erlang(2, parameters.pump_phase_rate),
            Erlang(2, parameters.pump_phase_rate * parameters.degraded_rate_factor),
        ],
        time_to_repairs=Erlang(2, PUMP_REPAIR_PHASE_RATE),
    )


def _add_dedicated_repair(model: ArcadeModel, component: str) -> None:
    model.add_repair_unit(
        RepairUnit(f"{component}_rep", [component], RepairStrategy.DEDICATED)
    )


# --------------------------------------------------------------------------- #
# subsystem builders
# --------------------------------------------------------------------------- #
def pump_line_components(line: int, parameters: RCSParameters) -> list[str]:
    """Names of the non-pump components of pump line ``line`` (1 or 2)."""
    names = [f"FP{line}"]
    for index in range(parameters.valves_per_pump_line):
        prefix = "VIP" if index == 0 else f"VOP{index}" if index > 1 else "VOP"
        names.append(f"{prefix}{line}")
    return names


def pump_line_down(line: int, parameters: RCSParameters) -> Expression:
    """Failure condition of one pump line (stuck-closed valves only)."""
    terms: list[Expression] = [down(f"P{line}"), down(f"FP{line}")]
    for name in pump_line_components(line, parameters)[1:]:
        terms.append(down(name, STUCK_CLOSED))
    return Or(terms)


def heat_exchange_unit_down(parameters: RCSParameters) -> Expression:
    """Failure condition of the heat exchanging unit (any valve failure counts)."""
    terms: list[Expression] = [down("HX"), down("FHX")]
    for index in range(parameters.valves_in_heat_exchange_unit):
        terms.append(down(f"VHX{index + 1}"))
    return Or(terms)


def bypass_down(parameters: RCSParameters) -> Expression:
    """Failure condition of the bypass (stuck-closed motor-driven valves)."""
    return Or(
        [
            down(f"MV{index + 1}", STUCK_CLOSED)
            for index in range(parameters.motor_driven_valves)
        ]
    )


def build_pump_subsystem(parameters: RCSParameters | None = None) -> ArcadeModel:
    """The pump subsystem: two load-sharing pump lines with a shared pump RU."""
    p = parameters or RCSParameters()
    model = ArcadeModel(name="rcs_pump_subsystem")
    model.add_component(_pump("P1", "P2", p))
    model.add_component(_pump("P2", "P1", p))
    model.add_repair_unit(RepairUnit("P_rep", ["P1", "P2"], RepairStrategy.FCFS))
    for line in (1, 2):
        for name in pump_line_components(line, p):
            if name.startswith("FP"):
                model.add_component(_filter(name, p))
            else:
                model.add_component(_valve(name, p))
            _add_dedicated_repair(model, name)
    model.set_system_down(And([pump_line_down(1, p), pump_line_down(2, p)]))
    return model


def build_heat_exchange_subsystem(parameters: RCSParameters | None = None) -> ArcadeModel:
    """The heat-exchanger-plus-bypass subsystem."""
    p = parameters or RCSParameters()
    model = ArcadeModel(name="rcs_heat_exchange_subsystem")
    model.add_component(
        BasicComponent(
            "HX",
            time_to_failures=Exponential(p.heat_exchanger_failure_rate),
            time_to_repairs=Exponential(p.repair_rate),
        )
    )
    _add_dedicated_repair(model, "HX")
    model.add_component(_filter("FHX", p))
    _add_dedicated_repair(model, "FHX")
    for index in range(p.valves_in_heat_exchange_unit):
        name = f"VHX{index + 1}"
        model.add_component(_valve(name, p))
        _add_dedicated_repair(model, name)
    for index in range(p.motor_driven_valves):
        name = f"MV{index + 1}"
        model.add_component(_valve(name, p))
        _add_dedicated_repair(model, name)
    model.set_system_down(And([heat_exchange_unit_down(p), bypass_down(p)]))
    return model


def build_rcs_model(parameters: RCSParameters | None = None) -> ArcadeModel:
    """The full reactor cooling system as a single Arcade model."""
    p = parameters or RCSParameters()
    model = ArcadeModel(name="reactor_cooling_system")
    pump_part = build_pump_subsystem(p)
    heat_part = build_heat_exchange_subsystem(p)
    for source in (pump_part, heat_part):
        for component in source.components.values():
            model.add_component(component)
        for unit in source.repair_units.values():
            model.add_repair_unit(unit)
    model.set_system_down(
        Or(
            [
                And([pump_line_down(1, p), pump_line_down(2, p)]),
                And([heat_exchange_unit_down(p), bypass_down(p)]),
            ]
        )
    )
    return model


# --------------------------------------------------------------------------- #
# composition orders and evaluators
# --------------------------------------------------------------------------- #
def pump_subsystem_groups(parameters: RCSParameters | None = None) -> list[list[str]]:
    """Subsystem decomposition of the pump subsystem for the composer."""
    p = parameters or RCSParameters()
    groups = [["P1", "P2", "P_rep"]]
    for line in (1, 2):
        group = []
        for name in pump_line_components(line, p):
            group.extend([name, f"{name}_rep"])
        groups.append(group)
    return groups


def heat_exchange_subsystem_groups(
    parameters: RCSParameters | None = None,
) -> list[list[str]]:
    """Subsystem decomposition of the heat-exchanger subsystem for the composer."""
    p = parameters or RCSParameters()
    unit_group = ["HX", "HX_rep", "FHX", "FHX_rep"]
    for index in range(p.valves_in_heat_exchange_unit):
        name = f"VHX{index + 1}"
        unit_group.extend([name, f"{name}_rep"])
    bypass_group = []
    for index in range(p.motor_driven_valves):
        name = f"MV{index + 1}"
        bypass_group.extend([name, f"{name}_rep"])
    return [unit_group, bypass_group]


def subsystem_order(
    translated: TranslatedModel, groups: list[list[str]]
) -> CompositionOrder:
    """Composition order for a subsystem, dropping absent blocks (no-repair runs)."""
    present = set(translated.blocks)
    filtered = [[name for name in group if name in present] for group in groups]
    return hierarchical_order(translated, [group for group in filtered if group])


def rcs_composition_order(
    translated: TranslatedModel, parameters: RCSParameters | None = None
) -> CompositionOrder:
    """Hierarchical composition order for the flat RCS or either subsystem.

    The groups of both subsystems are filtered to the blocks present, so a
    subsystem model gets exactly its own decomposition.
    """
    groups = pump_subsystem_groups(parameters) + heat_exchange_subsystem_groups(parameters)
    return subsystem_order(translated, groups)


def build_rcs_subsystem_models(
    parameters: RCSParameters | None = None,
) -> tuple[dict[str, ArcadeModel], Expression]:
    """The two independent RCS subsystems and the system failure expression."""
    subsystems = {
        "pumps": build_pump_subsystem(parameters),
        "heat_exchange": build_heat_exchange_subsystem(parameters),
    }
    return subsystems, Or([Literal(name, None) for name in subsystems])


def build_rcs_modular_evaluator(
    parameters: RCSParameters | None = None,
    *,
    order: str = "hierarchical",
    config: PipelineConfig | None = None,
    **settings,
) -> ModularEvaluator:
    """Modular evaluator of the full RCS (the paper's Section 5.2.2 analysis).

    ``order`` selects the composition-order policy applied to both subsystem
    evaluators (see :data:`~repro.composer.ORDER_POLICIES`):
    ``"hierarchical"`` (the paper's decomposition, default), ``"greedy"``
    or ``"auto"``.  ``config`` and the keyword ``settings`` are the shared
    :class:`~repro.config.PipelineConfig`; with ``cache="on"`` one quotient
    cache serves both subsystem evaluators — the two pump lines are
    isomorphic up to signal renaming.
    """
    hook = order_hook(order, rcs_composition_order)
    evaluator = ModularEvaluator(
        *build_rcs_subsystem_models(parameters), config=config, **settings
    )
    for subsystem in evaluator.evaluators.values():
        subsystem.order = hook(subsystem.translated, parameters)
    return evaluator


def rcs_parameters_from_values(values) -> RCSParameters:
    """Resolve a sweep axis-value assignment to :class:`RCSParameters`."""
    defaults = RCSParameters()
    return RCSParameters(
        pump_phase_rate=float(values.get("pump_phase_rate", defaults.pump_phase_rate)),
        valve_failure_rate=float(
            values.get("valve_failure_rate", defaults.valve_failure_rate)
        ),
        filter_failure_rate=float(
            values.get("filter_failure_rate", defaults.filter_failure_rate)
        ),
        heat_exchanger_failure_rate=float(
            values.get(
                "heat_exchanger_failure_rate", defaults.heat_exchanger_failure_rate
            )
        ),
        repair_rate=float(values.get("repair_rate", defaults.repair_rate)),
    )


def rcs_sweep_factory():
    """The flat RCS as a sweepable model family (:mod:`repro.sweep`).

    All five rates are sweep axes (and sensitivity-eligible).  The
    importance components are the ones the fault tree references with plain
    ``.down`` literals — mode-specific valve literals (stuck-closed) cannot
    be conditioned component-wise and are deliberately left out.
    """
    from ..sweep import SweepFactory

    defaults = RCSParameters()

    def build(values) -> ArcadeModel:
        return build_rcs_model(rcs_parameters_from_values(values))

    def order(translated: TranslatedModel, values) -> CompositionOrder:
        return rcs_composition_order(translated, rcs_parameters_from_values(values))

    return SweepFactory(
        name="rcs",
        build=build,
        base={
            "pump_phase_rate": defaults.pump_phase_rate,
            "valve_failure_rate": defaults.valve_failure_rate,
            "filter_failure_rate": defaults.filter_failure_rate,
            "heat_exchanger_failure_rate": defaults.heat_exchanger_failure_rate,
            "repair_rate": defaults.repair_rate,
        },
        order=order,
        rate_axes=(
            "pump_phase_rate",
            "filter_failure_rate",
            "heat_exchanger_failure_rate",
            "repair_rate",
        ),
        importance_components=("P1", "HX", "FHX"),
    )


__all__ = [
    "COMPONENT_REPAIR_RATE",
    "FILTER_FAILURE_RATE",
    "HEAT_EXCHANGER_FAILURE_RATE",
    "MISSION_TIME_HOURS",
    "PUMP_PHASE_RATE",
    "PUMP_REPAIR_PHASE_RATE",
    "RCSParameters",
    "STUCK_CLOSED",
    "STUCK_OPEN",
    "VALVE_FAILURE_RATE",
    "build_heat_exchange_subsystem",
    "build_pump_subsystem",
    "build_rcs_model",
    "build_rcs_modular_evaluator",
    "build_rcs_subsystem_models",
    "bypass_down",
    "heat_exchange_unit_down",
    "pump_line_components",
    "pump_line_down",
    "pump_subsystem_groups",
    "rcs_composition_order",
    "rcs_parameters_from_values",
    "rcs_sweep_factory",
    "subsystem_order",
]
