"""Parser for the textual Arcade syntax (Section 3.5 of the paper).

The syntax is line oriented: a specification is a sequence of blocks, each
introduced by a header line (``COMPONENT:``, ``REPAIR UNIT:``, ``SMU:``) and
followed by attribute lines, plus a single ``SYSTEM DOWN:`` line.  Example
(the primary processor and its repair unit from Section 5.1.1)::

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

Distributions are written ``exp(rate)`` or ``erlang(stages, rate)``; rates
may be plain numbers, scientific notation or fractions such as ``1/2000``.
Following the paper, the ``TIME-TO-REPAIRS`` list carries the repair
distribution of the destructive functional dependency as its last entry when
a ``DESTRUCTIVE FDEP`` line is present.
"""

from __future__ import annotations

import math
import re

from ...distributions import Erlang, Exponential, PhaseType
from ...errors import SyntaxParseError
from ..component import BasicComponent
from ..expressions import Expression, parse_expression
from ..model import ArcadeModel
from ..operational_modes import (
    OperationalModeGroup,
    accessibility_group,
    degradation_group,
    on_off_group,
    spare_group,
)
from ..repair_unit import RepairUnit
from ..spare_unit import SpareManagementUnit

_HEADER_KEYS = ("COMPONENT", "REPAIR UNIT", "RU", "SMU")


def parse_model(text: str, *, name: str = "arcade_model") -> ArcadeModel:
    """Parse a complete textual Arcade specification into an :class:`ArcadeModel`."""
    parser = _ModelParser(name)
    return parser.parse(text)


def parse_distribution(text: str) -> PhaseType:
    """Parse a single distribution term such as ``exp(1/2000)`` or ``erlang(2, 0.1)``."""
    term = text.strip()
    match = re.fullmatch(r"exp\s*\(\s*([^)]+?)\s*\)", term, re.IGNORECASE)
    if match:
        return Exponential(parse_number(match.group(1)))
    match = re.fullmatch(r"erlang\s*\(\s*(\d+)\s*,\s*([^)]+?)\s*\)", term, re.IGNORECASE)
    if match:
        return Erlang(int(match.group(1)), parse_number(match.group(2)))
    raise SyntaxParseError(f"cannot parse distribution {text!r} (expected exp(...) or erlang(k, ...))")


def parse_number(text: str) -> float:
    """Parse a rate: plain float, scientific notation, or a fraction ``a/b``."""
    term = text.strip()
    if "/" in term:
        parts = term.split("/")
        if len(parts) != 2:
            raise SyntaxParseError(f"cannot parse number {text!r}")
        numerator, denominator = parse_number(parts[0]), parse_number(parts[1])
        if denominator == 0:
            raise SyntaxParseError(f"cannot parse number {text!r}: division by zero")
        return numerator / denominator
    try:
        return float(term)
    except ValueError as error:
        raise SyntaxParseError(f"cannot parse number {text!r}") from error


class _ModelParser:
    """Internal line-oriented parser."""

    def __init__(self, model_name: str):
        self.model = ArcadeModel(name=model_name)

    def parse(self, text: str) -> ArcadeModel:
        lines = self._significant_lines(text)
        index = 0
        while index < len(lines):
            number, key, value = lines[index]
            if key == "COMPONENT":
                index = self._parse_component(lines, index)
            elif key in ("REPAIR UNIT", "RU"):
                index = self._parse_repair_unit(lines, index)
            elif key == "SMU":
                index = self._parse_smu(lines, index)
            elif key == "SYSTEM DOWN":
                self.model.set_system_down(parse_expression(value))
                index += 1
            else:
                raise SyntaxParseError(f"unexpected line {key!r}", line=number)
        self.model.validate()
        return self.model

    # ------------------------------------------------------------------ #
    # low-level helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _significant_lines(text: str) -> list[tuple[int, str, str]]:
        lines = []
        for number, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].split("//", 1)[0].strip()
            if not stripped:
                continue
            if ":" not in stripped:
                raise SyntaxParseError(f"expected 'KEY: value', found {stripped!r}", line=number)
            key, value = stripped.split(":", 1)
            lines.append((number, key.strip().upper(), value.strip()))
        return lines

    @staticmethod
    def _collect_block(
        lines: list[tuple[int, str, str]], start: int
    ) -> tuple[dict[str, tuple[int, str]], int]:
        """Collect the attribute lines of a block (until the next header)."""
        attributes: dict[str, tuple[int, str]] = {}
        index = start + 1
        while index < len(lines):
            number, key, value = lines[index]
            if key in _HEADER_KEYS or key == "SYSTEM DOWN":
                break
            if key in attributes:
                raise SyntaxParseError(f"duplicate attribute {key!r}", line=number)
            attributes[key] = (number, value)
            index += 1
        return attributes, index

    @staticmethod
    def _split_list(value: str) -> list[str]:
        """Split a comma separated list, respecting parentheses."""
        items: list[str] = []
        depth = 0
        current = ""
        for char in value:
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
            if char == "," and depth == 0:
                items.append(current.strip())
                current = ""
            else:
                current += char
        if current.strip():
            items.append(current.strip())
        return items

    # ------------------------------------------------------------------ #
    # blocks
    # ------------------------------------------------------------------ #
    def _parse_component(self, lines, start: int) -> int:
        number, _, name = lines[start]
        if not name:
            raise SyntaxParseError("COMPONENT needs a name", line=number)
        attributes, next_index = self._collect_block(lines, start)

        def pop(*keys: str) -> tuple[int, str] | None:
            for key in keys:
                if key in attributes:
                    return attributes.pop(key)
            return None

        groups: list[OperationalModeGroup] = []
        raw_modes = pop("OPERATIONAL MODES", "OPERATIONAL MODE")
        accessible_expr = pop("ACCESSIBLE-TO-INACCESSIBLE")
        inaccessible_down = pop("INACCESSIBLE MEANS DOWN")
        on_off_expr = pop("ON-TO-OFF")
        degraded_expr = pop("NORMAL-TO-DEGRADED")
        if raw_modes is not None:
            for group_text in re.findall(r"\(([^)]*)\)", raw_modes[1]):
                modes = [mode.strip().lower() for mode in group_text.split(",")]
                groups.append(
                    self._mode_group(
                        modes, raw_modes[0], accessible_expr, on_off_expr, degraded_expr
                    )
                )
        failures = pop("TIME-TO-FAILURES", "TIME-TO-FAILURE")
        if failures is None:
            raise SyntaxParseError(f"component {name}: missing TIME-TO-FAILURE(S)", line=number)
        ttf = [parse_distribution(term) for term in self._split_list(failures[1])]
        probabilities_line = pop("FAILURE MODE PROBABILITIES", "FAILURE-MODE-PROBABILITIES")
        probabilities = (
            [parse_number(term) for term in self._split_list(probabilities_line[1])]
            if probabilities_line is not None
            else [1.0]
        )
        fdep_line = pop("DESTRUCTIVE FDEP", "DESTRUCTIVE-FDEP")
        fdep: Expression | None = (
            parse_expression(fdep_line[1]) if fdep_line is not None else None
        )
        repairs_line = pop("TIME-TO-REPAIRS", "TIME-TO-REPAIR")
        repairs: list[PhaseType] = []
        repair_df: PhaseType | None = None
        if repairs_line is not None:
            repairs = [parse_distribution(term) for term in self._split_list(repairs_line[1])]
            if fdep is not None and len(repairs) == len(probabilities) + 1:
                repair_df = repairs.pop()
            elif fdep is not None and repairs:
                repair_df = repairs[-1]
        df_repair_line = pop("TIME-TO-REPAIR-DF")
        if df_repair_line is not None:
            repair_df = parse_distribution(df_repair_line[1])
        if attributes:
            leftover_line, _ = next(iter(attributes.values()))
            raise SyntaxParseError(
                f"component {name}: unknown attribute {next(iter(attributes))!r}",
                line=leftover_line,
            )
        means_down = True
        if inaccessible_down is not None:
            means_down = inaccessible_down[1].strip().upper() in ("YES", "TRUE", "1")
        self.model.add_component(
            BasicComponent(
                name,
                time_to_failures=ttf if len(ttf) > 1 else ttf[0],
                operational_modes=groups,
                failure_mode_probabilities=probabilities,
                time_to_repairs=repairs,
                time_to_repair_df=repair_df,
                destructive_fdep=fdep,
                inaccessible_means_down=means_down,
            )
        )
        return next_index

    def _mode_group(
        self, modes, line_number, accessible_expr, on_off_expr, degraded_expr
    ) -> OperationalModeGroup:
        mode_set = set(modes)
        if mode_set == {"inactive", "active"}:
            return spare_group()
        if mode_set == {"on", "off"}:
            if on_off_expr is None:
                raise SyntaxParseError("on/off group needs an ON-TO-OFF line", line=line_number)
            return on_off_group(parse_expression(on_off_expr[1]))
        if mode_set == {"accessible", "inaccessible"}:
            if accessible_expr is None:
                raise SyntaxParseError(
                    "accessible/inaccessible group needs an ACCESSIBLE-TO-INACCESSIBLE line",
                    line=line_number,
                )
            return accessibility_group(parse_expression(accessible_expr[1]))
        if modes[0] == "normal":
            if degraded_expr is None:
                raise SyntaxParseError(
                    "normal/degraded group needs a NORMAL-TO-DEGRADED line", line=line_number
                )
            expressions = [
                parse_expression(term)
                for term in self._split_list(degraded_expr[1])
            ]
            return degradation_group(expressions, mode_names=modes)
        raise SyntaxParseError(f"unknown operational-mode group {modes!r}", line=line_number)

    def _parse_repair_unit(self, lines, start: int) -> int:
        number, _, name = lines[start]
        attributes, next_index = self._collect_block(lines, start)
        components_line = attributes.pop("COMPONENTS", None)
        if components_line is None:
            raise SyntaxParseError(f"repair unit {name}: missing COMPONENTS line", line=number)
        strategy_line = attributes.pop("STRATEGY", attributes.pop("REPAIR STRATEGY", None))
        strategy = strategy_line[1] if strategy_line is not None else "dedicated"
        priorities_line = attributes.pop("PRIORITIES", None)
        priorities = None
        if priorities_line is not None:
            line_number, value = priorities_line
            priorities = []
            for term in self._split_list(value):
                priority = parse_number(term)
                if not math.isfinite(priority):
                    raise SyntaxParseError(
                        f"repair unit {name}: priority {term!r} is not a finite number",
                        line=line_number,
                    )
                priorities.append(int(priority))
        if attributes:
            raise SyntaxParseError(
                f"repair unit {name}: unknown attribute {next(iter(attributes))!r}", line=number
            )
        self.model.add_repair_unit(
            RepairUnit(
                name,
                self._split_list(components_line[1]),
                strategy,
                priorities=priorities,
            )
        )
        return next_index

    def _parse_smu(self, lines, start: int) -> int:
        number, _, name = lines[start]
        attributes, next_index = self._collect_block(lines, start)
        components_line = attributes.pop("COMPONENTS", None)
        if components_line is None:
            raise SyntaxParseError(f"SMU {name}: missing COMPONENTS line", line=number)
        failover_line = attributes.pop("FAILOVER-TIME", attributes.pop("FAILOVER TIME", None))
        failover = (
            parse_distribution(failover_line[1]) if failover_line is not None else None
        )
        if attributes:
            raise SyntaxParseError(
                f"SMU {name}: unknown attribute {next(iter(attributes))!r}", line=number
            )
        components = self._split_list(components_line[1])
        if len(components) < 2:
            raise SyntaxParseError(
                f"SMU {name}: needs a primary and at least one spare", line=number
            )
        self.model.add_spare_unit(
            SpareManagementUnit(name, components[0], components[1:], failover=failover)
        )
        return next_index


__all__ = ["parse_model", "parse_distribution", "parse_number"]
