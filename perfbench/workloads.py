"""The benchmark's three DDS workloads: inputs from a seed, one evaluation, checks.

Each workload is built once per process (that is part of set-up), then
``evaluate()`` runs one full, timed evaluation with a fresh evaluator and a
fresh cache, ``check()`` validates its outputs outside the timed region, and
``verify()`` runs the costlier spot checks once after the timed loop.

The pipeline is driven only through ``DDSParameters``/``build_dds_model``,
``ArcadeEvaluator`` and its measure methods, ``repro.ctmc.point_availability``
and ``run_sweep`` with ``SweepConfig``.  No worker pool and no reduction
schedule knob is passed.
"""

from __future__ import annotations

import dataclasses
import math
import random

from repro.analysis import ArcadeEvaluator
from repro.casestudies.dds import (
    DISK_FAILURE_RATE,
    MISSION_TIME_HOURS,
    PROCESSOR_FAILURE_RATE,
    REPAIR_RATE,
    DDSParameters,
    build_dds_model,
    dds_composition_order,
    dds_sweep_factory,
)
from repro.ctmc import point_availability
from repro.sweep import SweepConfig, run_sweep, verify_bit_identical

import oracle

#: Mirrors ``DDS_GOLDEN`` in tests/test_golden_regression.py; the self-tests
#: keep the two equal.
DDS_GOLDEN = {
    "ctmc_states": 2100,
    "ctmc_transitions": 15120,
    "largest_intermediate_states": 90250,
    "largest_intermediate_transitions": 467875,
    "composition_steps": 56,
    "availability": 0.99999650217143776,
    "reliability_5_weeks": 0.40201757107868796,
}

#: Relative tolerance against pinned double-precision values.
PINNED_RTOL = 1e-12
#: Relative tolerance against the closed-form oracle (a different solver).
ORACLE_RTOL = 1e-9
#: Point availability far past the mixing time must equal steady state.
STEADY_POINT_ATOL = 1e-9


def failure_rate_scale(seed: int) -> float:
    """Common factor on every failure rate: 1 for seed 0, else in [1/2, 2]."""
    if seed == 0:
        return 1.0
    return 2.0 ** random.Random(seed).uniform(-1.0, 1.0)


def _relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _compare(problems: list, label: str, value: float, reference: float, rtol: float):
    if not (math.isfinite(value) and _relative_error(value, reference) <= rtol):
        problems.append(f"{label}: {value!r} differs from {reference!r} (rtol {rtol:g})")


def _compare_exact(problems: list, label: str, value, reference) -> None:
    if value != reference:
        problems.append(f"{label}: {value!r}, expected {reference!r}")


class SingleModel:
    """One DDS instance through the full pipeline, one evaluator per evaluation.

    ``structure`` pins counts that do not depend on the rates (every seed);
    ``seed_zero`` pins measures at the paper rates (seed 0 only).  Every
    seed is checked against the closed-form oracle.
    """

    def __init__(
        self,
        seed: int,
        *,
        clusters: int,
        disks: int,
        reduction: str,
        cache: str,
        point_times: tuple[float, ...],
        structure: dict,
        seed_zero: dict,
    ) -> None:
        scale = failure_rate_scale(seed)
        self.seed = seed
        self.parameters = DDSParameters(
            num_clusters=clusters,
            disks_per_cluster=disks,
            processor_failure_rate=PROCESSOR_FAILURE_RATE * scale,
            disk_failure_rate=DISK_FAILURE_RATE * scale,
        )
        self.model = build_dds_model(self.parameters)
        self.reduction = reduction
        self.cache = cache
        self.point_times = point_times
        self.structure = structure
        self.seed_zero = seed_zero

    def evaluate(self) -> dict:
        evaluator = ArcadeEvaluator(self.model, reduction=self.reduction, cache=self.cache)
        evaluator.order = dds_composition_order(evaluator.translated, self.parameters)
        outputs = {
            "unavailability": evaluator.unavailability(),
            "unreliability": evaluator.unreliability(MISSION_TIME_HOURS),
        }
        for time in self.point_times:
            outputs[f"point_availability_{time:g}h"] = point_availability(
                evaluator.ctmc, time
            )
        statistics = evaluator.composed.statistics
        cache = evaluator.cache
        outputs.update(
            ctmc_states=evaluator.ctmc.num_states,
            ctmc_transitions=evaluator.ctmc.num_transitions,
            peak_states=statistics.largest_intermediate_states,
            steps=len(statistics.steps),
            cache_hits=0 if cache is None else cache.hits,
            cache_misses=0 if cache is None else cache.misses,
        )
        return outputs

    def check(self, outputs: dict) -> list[str]:
        problems: list[str] = []
        for key, expected in self.structure.items():
            _compare_exact(problems, key, outputs[key], expected)
        unavailability = outputs["unavailability"]
        _compare(
            problems, "unavailability vs oracle", unavailability,
            oracle.steady_unavailability(self.parameters), ORACLE_RTOL,
        )
        _compare(
            problems, "unreliability vs oracle", outputs["unreliability"],
            oracle.no_repair_unreliability(self.parameters, MISSION_TIME_HOURS),
            ORACLE_RTOL,
        )
        for time in self.point_times:
            point = outputs[f"point_availability_{time:g}h"]
            _compare(
                problems, f"point unavailability at {time:g} h vs oracle", 1.0 - point,
                oracle.point_unavailability(self.parameters, time), ORACLE_RTOL,
            )
        if self.point_times:
            last = self.point_times[-1]
            point = outputs[f"point_availability_{last:g}h"]
            if not abs(point - (1.0 - unavailability)) <= STEADY_POINT_ATOL:
                problems.append(
                    f"point availability at {last:g} h ({point!r}) is not steady-state "
                    f"availability ({1.0 - unavailability!r})"
                )
        if self.seed == 0:
            derived = {
                "availability": 1.0 - unavailability,
                "reliability": 1.0 - outputs["unreliability"],
            }
            for key, expected in self.seed_zero.items():
                value = derived[key] if key in derived else outputs[key]
                _compare(problems, f"{key} vs seed-commit pin", value, expected, PINNED_RTOL)
        return problems

    def verify(self, outputs: dict) -> list[str]:
        return []


def paper_branching(seed: int) -> SingleModel:
    """The paper's DDS (6 x 4) under branching bisimulation, cache off."""
    return SingleModel(
        seed,
        clusters=6,
        disks=4,
        reduction="branching",
        cache="off",
        point_times=(),
        structure={
            "ctmc_states": DDS_GOLDEN["ctmc_states"],
            "ctmc_transitions": DDS_GOLDEN["ctmc_transitions"],
            "peak_states": DDS_GOLDEN["largest_intermediate_states"],
            "steps": DDS_GOLDEN["composition_steps"],
        },
        seed_zero={
            "availability": DDS_GOLDEN["availability"],
            "reliability": DDS_GOLDEN["reliability_5_weeks"],
            # 1 - DDS_GOLDEN["availability"] carries only ~3e-11 relative
            # precision, so the unavailability itself is pinned.
            "unavailability": 3.4978285622462764e-06,
        },
    )


def wide_3x6(seed: int) -> SingleModel:
    """The DDS with 3 clusters of 6 disks under strong bisimulation, cache on."""
    return SingleModel(
        seed,
        clusters=3,
        disks=6,
        reduction="strong",
        cache="on",
        point_times=(168.0, 8760.0),
        structure={
            "ctmc_states": 840,
            "ctmc_transitions": 5376,
            "peak_states": 20800,
            "steps": 41,
            "cache_hits": 31,
            "cache_misses": 45,
        },
        seed_zero={
            "unavailability": 3.997660424557501e-06,
            "unreliability": 0.6198663637836286,
            "point_availability_168h": 0.9999960023395754,
            "point_availability_8760h": 0.9999960023395754,
        },
    )


def _geometric(center: float) -> list[float]:
    return [center / 2.0, center, center * 2.0]


class Sweep:
    """``run_sweep`` over the DDS family fixed at 2 clusters x 3 disks.

    A 3 x 3 x 3 geometric grid over the three rates plus Latin-hypercube
    points drawn from the seed, all through one shared cache.
    """

    lhs_samples = 7
    structure = {"rows": 27 + 7, "cache_hits": 1044, "cache_misses": 554}
    #: CTMC size of the 2 x 3 DDS, the same at every rate.
    row_ctmc_states = 100
    #: Rows re-evaluated cold by ``verify_bit_identical``.
    spot_checks = (0, 13, 26, 33)

    def __init__(self, seed: int) -> None:
        factory = dds_sweep_factory()
        base = dict(factory.base, num_clusters=2.0, disks_per_cluster=3.0)
        self.factory = dataclasses.replace(factory, base=base)
        self.config = SweepConfig(
            grid={
                "processor_failure_rate": _geometric(PROCESSOR_FAILURE_RATE),
                "disk_failure_rate": _geometric(DISK_FAILURE_RATE),
                "repair_rate": _geometric(REPAIR_RATE),
            },
            priors={
                "processor_failure_rate": (PROCESSOR_FAILURE_RATE / 2, PROCESSOR_FAILURE_RATE * 2),
                "disk_failure_rate": (DISK_FAILURE_RATE / 2, DISK_FAILURE_RATE * 2),
                "repair_rate": (REPAIR_RATE / 2, REPAIR_RATE * 2),
            },
            lhs_samples=self.lhs_samples,
            cache="on",
            root_seed=seed,
            mission_time=MISSION_TIME_HOURS,
            sensitivity_axes=(),
            importance=False,
        )

    def evaluate(self) -> dict:
        result = run_sweep(self.factory, self.config)
        cache = result.manifest["cache"]
        return {
            "result": result,
            "rows": len(result.points),
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
        }

    def check(self, outputs: dict) -> list[str]:
        problems: list[str] = []
        for key, expected in self.structure.items():
            _compare_exact(problems, key, outputs[key], expected)
        for row in outputs["result"].points:
            label = f"row {int(row['index'])}"
            if str(row["status"]) != "ok":
                problems.append(f"{label}: status {row['status']!s} ({row['error']!s})")
                continue
            _compare_exact(problems, f"{label} ctmc_states", int(row["ctmc_states"]), self.row_ctmc_states)
            parameters = DDSParameters(
                num_clusters=2,
                disks_per_cluster=3,
                processor_failure_rate=float(row["processor_failure_rate"]),
                disk_failure_rate=float(row["disk_failure_rate"]),
                repair_rate=float(row["repair_rate"]),
            )
            _compare(
                problems, f"{label} unavailability vs oracle", float(row["unavailability"]),
                oracle.steady_unavailability(parameters), ORACLE_RTOL,
            )
            _compare(
                problems, f"{label} unreliability vs oracle", float(row["unreliability"]),
                oracle.no_repair_unreliability(parameters, MISSION_TIME_HOURS), ORACLE_RTOL,
            )
        return problems

    def verify(self, outputs: dict) -> list[str]:
        report = verify_bit_identical(
            self.factory, outputs["result"], self.config, indices=self.spot_checks
        )
        if report["checked"] != len(self.spot_checks) or not report["identical"]:
            return [f"cold re-evaluation of rows {self.spot_checks} differs: {report}"]
        return []


#: Workload name -> constructor taking the seed.
WORKLOADS = {
    "dds-paper-branching": paper_branching,
    "dds-wide-3x6": wide_3x6,
    "dds-sweep-27": Sweep,
}
