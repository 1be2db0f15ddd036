"""``python -m repro {dds,rcs}`` — the case-study command line.

One parser serves both case studies of Section 5; ``--clusters`` and
``--disks-per-cluster`` exist on ``dds`` only.  The options build one
:class:`~repro.config.PipelineConfig`, and one runner takes it through a
single evaluation (``--backend compose``, the default, or ``simulate``) or
a parameter sweep (``--sweep``)::

    python -m repro dds --reduction branching
    python -m repro rcs --backend simulate --rel-error 0.05
    python -m repro dds --sweep \\
        --sweep-grid disk_failure_rate=1e-4,1.6667e-4,2.5e-4 \\
        --sweep-prior processor_failure_rate=2e-4,1e-3 \\
        --sweep-lhs 32 --jobs 2 --sweep-out results/dds_sweep

Grid axes are explicit value lists, priors are ``low,high[,log|linear]``
ranges sampled by Latin hypercube, and sweep results land in the columnar
store (``<out>.npz`` + ``<out>.manifest.json``) of :mod:`repro.sweep.store`.
The ``--order`` policy resolves once to an order hook that the single
evaluation and every sweep point share.  A bad option value ends the run
with a one-line usage error (exit status 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Callable, Mapping

from .analysis import ArcadeEvaluator, ModularEvaluator
from .casestudies import dds, rcs
from .composer import ORDER_POLICIES, order_hook
from .config import PipelineConfig
from .errors import ArcadeError, SweepError
from .resilience import RetryPolicy, load_cache, save_cache
from .sweep import Prior, SweepConfig, SweepFactory, SweepResult, run_sweep
from .telemetry import (
    add_observability_arguments,
    configure_logging,
    get_logger,
    telemetry_session,
)


@dataclass(frozen=True)
class CaseStudy:
    """What differs between the case studies; everything else is shared."""

    #: Header label of a run, from the parsed options.
    label: Callable[[argparse.Namespace], str]
    #: The sweepable model family; its ``base`` is the single-run point and
    #: its ``order`` hook the hierarchical order.
    factory: Callable[[argparse.Namespace], SweepFactory]
    #: Sweep grid when no ``--sweep-grid``/``--sweep-prior`` axis is given.
    default_grid: Mapping[str, list[float]]
    #: The compositional evaluator of a point under a config.
    evaluator: Callable[[Mapping[str, float], PipelineConfig], object]
    #: Report lines of a compositional run (computes the measures).
    report: Callable[[object], list[str]]
    #: Report lines of a simulation run (computes the estimates).
    simulate_report: Callable[[ArcadeEvaluator], list[str]]


def _dds_factory(args: argparse.Namespace) -> SweepFactory:
    # --clusters / --disks-per-cluster pin the structural axes of the family
    # (they stay sweepable via --sweep-grid num_clusters=...).
    factory = dds.dds_sweep_factory()
    base = dict(
        factory.base,
        num_clusters=float(args.clusters),
        disks_per_cluster=float(args.disks_per_cluster),
    )
    return dataclasses.replace(factory, base=base)


def _dds_report(evaluator: ArcadeEvaluator) -> list[str]:
    availability = evaluator.availability()
    reliability = evaluator.reliability(dds.MISSION_TIME_HOURS)
    statistics = evaluator.composed.statistics
    return [
        f"final CTMC: {evaluator.ctmc.num_states} states / "
        f"{evaluator.ctmc.num_transitions} transitions",
        f"largest intermediate: {statistics.largest_intermediate_states} states "
        f"over {len(statistics.steps)} composition steps",
        f"availability          {availability:.9f}",
        f"reliability (5 weeks) {reliability:.9f}",
    ]


def _dds_simulate_report(evaluator: ArcadeEvaluator) -> list[str]:
    availability = evaluator.availability()
    interval = evaluator.simulation_interval
    reliability = evaluator.reliability(dds.MISSION_TIME_HOURS)
    return [
        f"availability          {availability:.9f}",
        *([f"unavailability CI     {interval.describe()}"] if interval else []),
        f"reliability (5 weeks) {reliability:.9f}",
    ]


def _rcs_report(modular: ModularEvaluator) -> list[str]:
    from .ctmc import point_availability

    pumps = modular.evaluators["pumps"]
    heat = modular.evaluators["heat_exchange"]
    mission = rcs.MISSION_TIME_HOURS
    unavailability = 1.0 - (
        point_availability(pumps.ctmc, mission) * point_availability(heat.ctmc, mission)
    )
    unreliability = modular.unreliability(mission)
    return [
        f"pump subsystem CTMC: {pumps.ctmc.num_states} states / "
        f"{pumps.ctmc.num_transitions} transitions, "
        f"unavailability {pumps.unavailability():.6e}",
        f"heat-exchange CTMC:  {heat.ctmc.num_states} states / "
        f"{heat.ctmc.num_transitions} transitions, "
        f"unavailability {heat.unavailability():.6e}",
        f"unavailability (50 h) {unavailability:.6e}",
        f"unreliability  (50 h) {unreliability:.6e}",
    ]


def _rcs_simulate_report(evaluator: ArcadeEvaluator) -> list[str]:
    unavailability = evaluator.unavailability()
    interval = evaluator.simulation_interval
    unreliability = evaluator.unreliability(rcs.MISSION_TIME_HOURS)
    return [
        f"long-run unavailability {unavailability:.3e}",
        *([f"unavailability CI       {interval.describe()}"] if interval else []),
        f"unreliability (50 h)    {unreliability:.3e}",
    ]


CASE_STUDIES = {
    "dds": CaseStudy(
        label=lambda args: f"DDS ({args.clusters} clusters)",
        factory=_dds_factory,
        default_grid={
            "disk_failure_rate": [
                dds.DISK_FAILURE_RATE / 2.0,
                dds.DISK_FAILURE_RATE,
                dds.DISK_FAILURE_RATE * 2.0,
            ],
            "repair_rate": [0.5, 1.0, 2.0],
        },
        evaluator=lambda values, config: ArcadeEvaluator(
            dds.build_dds_model(dds.dds_parameters_from_values(values)), config=config
        ),
        report=_dds_report,
        simulate_report=_dds_simulate_report,
    ),
    "rcs": CaseStudy(
        label=lambda args: "RCS (flat model)" if args.backend == "simulate" else "RCS (modular)",
        factory=lambda args: rcs.rcs_sweep_factory(),
        default_grid={
            "filter_failure_rate": [
                rcs.FILTER_FAILURE_RATE / 2.0,
                rcs.FILTER_FAILURE_RATE,
                rcs.FILTER_FAILURE_RATE * 2.0,
            ],
            "repair_rate": [0.05, 0.1, 0.2],
        },
        evaluator=lambda values, config: ModularEvaluator(
            *rcs.build_rcs_subsystem_models(rcs.rcs_parameters_from_values(values)),
            config=config,
        ),
        report=_rcs_report,
        simulate_report=_rcs_simulate_report,
    ),
}


# --------------------------------------------------------------------------- #
# the parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser: one sub-command per case study."""
    shared = argparse.ArgumentParser(add_help=False)
    option = shared.add_argument
    option("--reduction", choices=("strong", "weak", "branching"), default="strong",
           help="bisimulation variant applied between composition steps")
    option("--order", choices=ORDER_POLICIES, default="hierarchical",
           help="composition-order policy: the paper's hierarchical decomposition, "
           "the greedy signal-closing heuristic, or the cost-model-guided planner")
    option("--cache", choices=("on", "off"), default="on",
           help="isomorphism-aware quotient cache: compose each replicated subtree "
           "once and rebase the copies")
    option("--jobs", type=int, default=1,
           help="worker processes for parallel subtree aggregation (1 = serial)")
    option("--backend", choices=("compose", "simulate"), default="compose",
           help="compose: the paper's compositional-aggregation pipeline; "
           "simulate: RESTART rare-event simulation (no state space built)")
    option("--replications", type=int, default=256,
           help="simulation roots per batch (simulate backend only)")
    option("--rel-error", type=float, default=None,
           help="target relative CI half-width; keeps adding replication batches "
           "until reached (simulate backend only)")
    option("--sim-horizon", type=float, default=10_000.0,
           help="time horizon of each simulated trajectory, hours")
    option("--sim-seed", type=int, default=0, help="seed of the simulation RNG stream")
    add_observability_arguments(shared)

    option = shared.add_argument_group("parameter sweeps").add_argument
    option("--sweep", action="store_true",
           help="run a parameter sweep over the model family instead of a single "
           "evaluation")
    option("--sweep-grid", action="append", default=[], metavar="AXIS=V1,V2,...",
           help="grid axis with explicit values (repeatable; full Cartesian product "
           "across axes)")
    option("--sweep-prior", action="append", default=[],
           metavar="AXIS=LOW,HIGH[,log|linear]",
           help="uncertainty prior for Latin-hypercube sampling (repeatable; default "
           "scale: log-uniform)")
    option("--sweep-lhs", type=int, default=0, metavar="N",
           help="number of Latin-hypercube samples over the priors")
    option("--sweep-out", default=None, metavar="BASE",
           help="write the columnar results store to BASE.npz + BASE.manifest.json")
    option("--root-seed", type=int, default=0,
           help="root seed of the per-point SeedSequence spawning discipline")
    option("--fd-step", type=float, default=0.05,
           help="relative step of the central-difference rate sensitivities")
    option("--no-importance", action="store_true",
           help="skip the Birnbaum / improvement-potential conditioned evaluations")
    option("--sweep-checkpoint", default=None, metavar="BASE",
           help="crash-safe checkpoint pair (BASE.ckpt.npz + BASE.ckpt.cache.npz) "
           "written as points complete; defaults to the --sweep-out base")
    option("--checkpoint-every", type=int, default=1, metavar="N",
           help="write the checkpoint every N completed evaluations")
    option("--resume", action="store_true",
           help="replay a matching checkpoint before evaluating anything live "
           "(bit-identical to an uninterrupted run)")
    option("--isolate-failures", action="store_true",
           help="a point whose evaluation raises a library error becomes an error "
           "row instead of killing the sweep")

    option = shared.add_argument_group("resilience").add_argument
    option("--cache-file", default=None, metavar="PATH",
           help="persist the quotient cache: load it (checksummed, corrupt entries "
           "quarantined) before evaluating and save it atomically after")
    option("--state-budget", type=int, default=None, metavar="STATES",
           help="per-step ceiling on the pre-reduction state count; a step that would "
           "exceed it fails fast with StateBudgetError instead of exhausting memory")
    option("--retry-attempts", type=int, default=3, metavar="N",
           help="attempts per parallel subtree task before the serial fallback")
    option("--task-timeout", type=float, default=None, metavar="SECONDS",
           help="per-task timeout of the parallel subtree dispatch (default: none)")
    option("--retry-backoff", type=float, default=0.0, metavar="SECONDS",
           help="base backoff between retry rounds (doubles per round)")
    option("--no-serial-fallback", action="store_true",
           help="fail the evaluation when a subtree exhausts its retries instead of "
           "recomputing it serially in the parent")

    parser = argparse.ArgumentParser(
        prog="python -m repro", description="The case studies of the Arcade paper (Section 5)"
    )
    commands = parser.add_subparsers(dest="case", required=True, metavar="{dds,rcs}")
    option = commands.add_parser(
        "dds", parents=[shared], help="Distributed Database System (Section 5.1)"
    ).add_argument
    option("--clusters", type=int, default=dds.DDSParameters().num_clusters,
           help="number of disk clusters (paper: 6); scales the model")
    option("--disks-per-cluster", type=int, default=dds.DDSParameters().disks_per_cluster,
           help="disks per cluster (paper: 4); scales the replicated subtrees")
    commands.add_parser("rcs", parents=[shared], help="Reactor Cooling System (Section 5.2)")
    return parser


# --------------------------------------------------------------------------- #
# options -> configs
# --------------------------------------------------------------------------- #
def parse_grid_specs(specs: list[str]) -> dict[str, list[float]]:
    """``AXIS=V1,V2,...`` option strings to a grid mapping."""
    grid: dict[str, list[float]] = {}
    for spec in specs:
        axis, _, tail = spec.partition("=")
        if not axis or not tail:
            raise SweepError(f"cannot parse grid spec {spec!r} (want AXIS=V1,V2,...)")
        try:
            grid[axis] = [float(token) for token in tail.split(",")]
        except ValueError as error:
            raise SweepError(f"cannot parse grid spec {spec!r}: {error}") from error
    return grid


def parse_prior_specs(specs: list[str]) -> dict[str, Prior]:
    """``AXIS=LOW,HIGH[,log|linear]`` option strings to a prior mapping."""
    priors: dict[str, Prior] = {}
    for spec in specs:
        axis, _, tail = spec.partition("=")
        tokens = tail.split(",") if tail else []
        if not axis or len(tokens) not in (2, 3):
            raise SweepError(
                f"cannot parse prior spec {spec!r} (want AXIS=LOW,HIGH[,log|linear])"
            )
        scale = tokens[2].strip().lower() if len(tokens) == 3 else "log"
        if scale not in ("log", "linear"):
            raise SweepError(
                f"cannot parse prior spec {spec!r}: scale must be 'log' or 'linear'"
            )
        try:
            low, high = float(tokens[0]), float(tokens[1])
        except ValueError as error:
            raise SweepError(f"cannot parse prior spec {spec!r}: {error}") from error
        priors[axis] = Prior(low, high, log=scale == "log")
    return priors


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The run's pipeline config — a :class:`SweepConfig` under ``--sweep``."""
    config = PipelineConfig(
        reduction=args.reduction,
        cache=args.cache,
        jobs=args.jobs,
        retry=RetryPolicy(
            max_attempts=args.retry_attempts,
            timeout_seconds=args.task_timeout,
            backoff_seconds=args.retry_backoff,
            serial_fallback=not args.no_serial_fallback,
        ),
        state_budget=args.state_budget,
        backend=args.backend,
        sim_seed=args.sim_seed,
        sim_horizon=args.sim_horizon,
        sim_replications=args.replications,
        sim_rel_error=args.rel_error,
    )
    if not args.sweep:
        return config
    grid = parse_grid_specs(args.sweep_grid)
    priors = parse_prior_specs(args.sweep_prior)
    if not grid and not priors:
        grid = dict(CASE_STUDIES[args.case].default_grid)
    checkpoint = args.sweep_checkpoint
    if checkpoint is None and args.resume:
        checkpoint = args.sweep_out
    if args.resume and checkpoint is None:
        raise SweepError("--resume needs --sweep-checkpoint (or --sweep-out)")
    return SweepConfig(
        **{spec.name: getattr(config, spec.name) for spec in dataclasses.fields(config)},
        grid=grid,
        priors=priors,
        lhs_samples=args.sweep_lhs if priors else 0,
        root_seed=args.root_seed,
        fd_step=args.fd_step,
        importance=not args.no_importance,
        isolate_failures=args.isolate_failures,
        checkpoint=checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )


# --------------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    """Parse the options, build the config once and run the case study."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args).resolved()
    except ArcadeError as error:
        parser.error(str(error))
    configure_logging(args)
    with telemetry_session(args.case, args, seeds={"sim_seed": args.sim_seed}):
        run(args, config)
    return 0


def run(args: argparse.Namespace, config: PipelineConfig) -> None:
    """Run one case study under ``config`` (its cache already resolved)."""
    log = get_logger(args.case)
    case = CASE_STUDIES[args.case]
    factory = case.factory(args)
    hook = order_hook(args.order, factory.order)
    cache_file = args.cache_file if config.cache is not None else None
    if cache_file is not None and os.path.exists(cache_file):
        _, report = load_cache(cache_file, config.cache)
        log.info("  cache file: loaded %s entries from %s", report.loaded, report.path)
        if report.quarantined:
            log.warning(
                "  cache file: quarantined %s corrupt entries (%s)",
                report.quarantined,
                ", ".join(report.quarantined_keys),
            )
    if args.sweep:
        result = run_sweep(dataclasses.replace(factory, order=hook), config)
        _log_sweep(log, factory.name, result)
        if args.sweep_out:
            npz_path, manifest_path = result.save(args.sweep_out)
            log.info("  store: %s + %s", npz_path, manifest_path)
    elif config.backend == "simulate":
        started = time.perf_counter()
        evaluator = ArcadeEvaluator(factory.build(factory.base), config=config)
        lines = case.simulate_report(evaluator)
        log.info("%s, backend=simulate (RESTART)", case.label(args))
        for line in lines:
            log.info("  %s", line)
        log.info("  wall-clock %.1fs", time.perf_counter() - started)
    else:
        _run_compose(args, case, factory.base, hook, config, log)
    if cache_file is not None:
        stored = save_cache(config.cache, cache_file)
        log.info("  cache file: saved %s entries to %s", stored, cache_file)


def _run_compose(args, case: CaseStudy, values, hook, config: PipelineConfig, log) -> None:
    """One compositional evaluation of the point ``values``, reported."""
    started = time.perf_counter()
    evaluator = case.evaluator(values, config)
    members = getattr(evaluator, "evaluators", {"": evaluator})
    for member in members.values():
        member.order = hook(member.translated, values)
    lines = case.report(evaluator)
    elapsed = time.perf_counter() - started
    jobs_note = f", jobs={config.jobs}" if config.jobs > 1 else ""
    log.info(
        "%s, reduction=%s, order=%s%s", case.label(args), config.reduction, args.order, jobs_note
    )
    for name, member in members.items():
        if member.composed.plan_report is not None:
            prefix = f"{name}: " if name else ""
            log.info("  %s%s", prefix, member.composed.plan_report.summary())
    if config.cache is not None:
        _log_cache(log, config.cache.summary())
    for line in lines:
        log.info("  %s", line)
    statistics = [member.composed.statistics for member in members.values()]
    for entry in statistics:
        if entry.serial_fallbacks or entry.worker_retries:
            log.warning(
                "  resilience: %s retry(ies), %s timeout(s), %s pool break(s), "
                "%s serial fallback(s)",
                entry.worker_retries,
                entry.worker_timeouts,
                entry.pool_breaks,
                entry.serial_fallbacks,
            )
    log.info(
        "  wall-clock %.1fs (compose %.1fs, reduce %.1fs)",
        elapsed,
        sum(entry.total_compose_seconds for entry in statistics),
        sum(entry.total_reduce_seconds for entry in statistics),
    )


def _log_cache(log, summary: dict) -> None:
    log.info(
        "  cache: %s hits / %s misses (hit rate %.0f%%), saved %.2fs",
        summary["hits"],
        summary["misses"],
        100.0 * summary["hit_rate"],
        summary["saved_seconds"],
    )


def _log_sweep(log, name: str, result: SweepResult) -> None:
    totals = result.manifest["totals"]
    log.info(
        "%s sweep: %s points, %s evaluations, %.1fs",
        name,
        totals["points"],
        totals["evaluations"],
        totals["seconds"],
    )
    if totals.get("errors", 0):
        log.warning("  %s point(s) failed and were isolated as error rows", totals["errors"])
    if result.manifest.get("cache"):
        _log_cache(log, result.manifest["cache"])
    for row in result.sensitivities:
        log.info(
            "  dU/d %s: %+.3e (elasticity %+.3f)",
            row["axis"],
            row["derivative"],
            row["elasticity"],
        )
    for row in result.importance:
        log.info(
            "  importance %s: Birnbaum %.3e, improvement potential %.3e",
            row["component"],
            row["birnbaum"],
            row["improvement_potential"],
        )
    distributions = result.manifest.get("distributions", {}).get("lhs")
    if distributions:
        summary = distributions["unavailability"]
        quantiles = summary["quantiles"]
        log.info(
            "  LHS unavailability: mean %.3e, 90%% interval [%.3e, %.3e]",
            summary["mean"],
            quantiles["0.05"],
            quantiles["0.95"],
        )


__all__ = [
    "CASE_STUDIES",
    "CaseStudy",
    "build_parser",
    "config_from_args",
    "main",
    "parse_grid_specs",
    "parse_prior_specs",
    "run",
]
