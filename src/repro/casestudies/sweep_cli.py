"""Shared ``--sweep`` command-line plumbing for the case-study CLIs.

Both case studies expose the same sweep vocabulary::

    python -m repro.casestudies.dds --sweep \\
        --sweep-grid disk_failure_rate=1e-4,1.6667e-4,2.5e-4 \\
        --sweep-grid repair_rate=0.5,1.0,2.0 \\
        --sweep-prior processor_failure_rate=2e-4,1e-3 \\
        --sweep-lhs 32 --cache on --jobs 2 \\
        --sweep-out results/dds_sweep

Grid axes are explicit value lists, priors are ``low,high[,log|linear]``
ranges sampled by Latin hypercube, and the results land in the columnar
store (``<out>.npz`` + ``<out>.manifest.json``) of :mod:`repro.sweep.store`.
"""

from __future__ import annotations

import argparse

from ..errors import SweepError
from ..sweep import Prior, SweepConfig, SweepResult, run_sweep
from ..telemetry import get_logger
from .orders import ORDER_CHOICES

log = get_logger("sweep")


def add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the evaluation-pipeline options shared by the case-study CLIs."""
    parser.add_argument(
        "--reduction",
        choices=("strong", "weak", "branching"),
        default="strong",
        help="bisimulation variant applied between composition steps",
    )
    parser.add_argument(
        "--order",
        choices=ORDER_CHOICES,
        default="hierarchical",
        help="composition-order policy: the paper's hierarchical decomposition, "
        "the greedy signal-closing heuristic, or the cost-model-guided planner",
    )
    parser.add_argument(
        "--cache",
        choices=("on", "off"),
        default="on",
        help="isomorphism-aware quotient cache: compose each replicated "
        "subtree once and rebase the copies",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for parallel subtree aggregation (1 = serial)",
    )
    parser.add_argument(
        "--backend",
        choices=("compose", "simulate"),
        default="compose",
        help="compose: the paper's compositional-aggregation pipeline; "
        "simulate: RESTART rare-event simulation (no state space built)",
    )
    parser.add_argument(
        "--replications",
        type=int,
        default=256,
        help="simulation roots per batch (simulate backend only)",
    )
    parser.add_argument(
        "--rel-error",
        type=float,
        default=None,
        help="target relative CI half-width; keeps adding replication "
        "batches until reached (simulate backend only)",
    )
    parser.add_argument(
        "--sim-horizon",
        type=float,
        default=10_000.0,
        help="time horizon of each simulated trajectory, hours",
    )
    parser.add_argument(
        "--sim-seed",
        type=int,
        default=0,
        help="seed of the simulation RNG stream",
    )


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the ``--sweep*`` options on a case-study CLI parser."""
    group = parser.add_argument_group("parameter sweeps")
    group.add_argument(
        "--sweep",
        action="store_true",
        help="run a parameter sweep over the model family instead of a "
        "single evaluation",
    )
    group.add_argument(
        "--sweep-grid",
        action="append",
        default=[],
        metavar="AXIS=V1,V2,...",
        help="grid axis with explicit values (repeatable; full Cartesian "
        "product across axes)",
    )
    group.add_argument(
        "--sweep-prior",
        action="append",
        default=[],
        metavar="AXIS=LOW,HIGH[,log|linear]",
        help="uncertainty prior for Latin-hypercube sampling (repeatable; "
        "default scale: log-uniform)",
    )
    group.add_argument(
        "--sweep-lhs",
        type=int,
        default=0,
        metavar="N",
        help="number of Latin-hypercube samples over the priors",
    )
    group.add_argument(
        "--sweep-out",
        default=None,
        metavar="BASE",
        help="write the columnar results store to BASE.npz + "
        "BASE.manifest.json",
    )
    group.add_argument(
        "--root-seed",
        type=int,
        default=0,
        help="root seed of the per-point SeedSequence spawning discipline",
    )
    group.add_argument(
        "--fd-step",
        type=float,
        default=0.05,
        help="relative step of the central-difference rate sensitivities",
    )
    group.add_argument(
        "--no-importance",
        action="store_true",
        help="skip the Birnbaum / improvement-potential conditioned "
        "evaluations",
    )
    group.add_argument(
        "--sweep-checkpoint",
        default=None,
        metavar="BASE",
        help="crash-safe checkpoint pair (BASE.ckpt.npz + BASE.ckpt.cache.npz) "
        "written as points complete; defaults to the --sweep-out base",
    )
    group.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="write the checkpoint every N completed evaluations",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="replay a matching checkpoint before evaluating anything live "
        "(bit-identical to an uninterrupted run)",
    )
    group.add_argument(
        "--isolate-failures",
        action="store_true",
        help="a point whose evaluation raises a library error becomes an "
        "error row instead of killing the sweep",
    )


def add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the shared resilience options on a case-study CLI parser."""
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="persist the quotient cache: load it (checksummed, corrupt "
        "entries quarantined) before evaluating and save it atomically after",
    )
    group.add_argument(
        "--state-budget",
        type=int,
        default=None,
        metavar="STATES",
        help="per-step ceiling on the pre-reduction state count; a step that "
        "would exceed it fails fast with StateBudgetError instead of "
        "exhausting memory",
    )
    group.add_argument(
        "--retry-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts per parallel subtree task before the serial fallback",
    )
    group.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task timeout of the parallel subtree dispatch "
        "(default: no timeout)",
    )
    group.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="base backoff between retry rounds (doubles per round)",
    )
    group.add_argument(
        "--no-serial-fallback",
        action="store_true",
        help="fail the evaluation when a subtree exhausts its retries "
        "instead of recomputing it serially in the parent",
    )


def retry_from_args(args: argparse.Namespace):
    """Build the :class:`~repro.resilience.RetryPolicy` the CLI asked for.

    Returns ``None`` when every knob is at its default, so the composer's
    own default policy applies unchanged.
    """
    from ..resilience import RetryPolicy

    attempts = getattr(args, "retry_attempts", 3)
    timeout = getattr(args, "task_timeout", None)
    backoff = getattr(args, "retry_backoff", 0.0)
    fallback = not getattr(args, "no_serial_fallback", False)
    if attempts == 3 and timeout is None and backoff == 0.0 and fallback:
        return None
    return RetryPolicy(
        max_attempts=attempts,
        timeout_seconds=timeout,
        backoff_seconds=backoff,
        serial_fallback=fallback,
    )


def load_cache_file(cache, args: argparse.Namespace) -> None:
    """Warm ``cache`` from ``--cache-file`` when the file exists."""
    import os

    path = getattr(args, "cache_file", None)
    if cache is None or path is None or not os.path.exists(path):
        return
    from ..resilience import load_cache

    _, report = load_cache(path, cache)
    log.info(
        "  cache file: loaded %s entries from %s", report.loaded, report.path
    )
    if report.quarantined:
        log.warning(
            "  cache file: quarantined %s corrupt entries (%s)",
            report.quarantined,
            ", ".join(report.quarantined_keys),
        )


def save_cache_file(cache, args: argparse.Namespace) -> None:
    """Persist ``cache`` to ``--cache-file`` (atomic, checksummed)."""
    path = getattr(args, "cache_file", None)
    if cache is None or path is None:
        return
    from ..resilience import save_cache

    stored = save_cache(cache, path)
    log.info("  cache file: saved %s entries to %s", stored, path)


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


def run_sweep_cli(factory, args: argparse.Namespace, *, default_grid=None) -> SweepResult:
    """Run the sweep described by the parsed CLI options and print a summary."""
    grid = parse_grid_specs(args.sweep_grid)
    priors = parse_prior_specs(args.sweep_prior)
    if not grid and not priors:
        if default_grid is None:
            raise SweepError(
                "the sweep needs at least one --sweep-grid or --sweep-prior axis"
            )
        grid = dict(default_grid)
    from ..composer import resolve_cache

    checkpoint = getattr(args, "sweep_checkpoint", None)
    if checkpoint is None and getattr(args, "resume", False):
        checkpoint = args.sweep_out
    if getattr(args, "resume", False) and checkpoint is None:
        raise SweepError("--resume needs --sweep-checkpoint (or --sweep-out)")
    # Resolve the cache here so --cache-file can warm it before the sweep
    # and persist it afterwards (run_sweep accepts the instance unchanged).
    cache = resolve_cache(getattr(args, "cache", "on"))
    load_cache_file(cache, args)
    config = SweepConfig(
        grid=grid,
        priors=priors,
        lhs_samples=args.sweep_lhs if priors else 0,
        backend=getattr(args, "backend", "compose"),
        reduction=getattr(args, "reduction", "strong"),
        cache=cache,
        jobs=getattr(args, "jobs", 1),
        root_seed=args.root_seed,
        fd_step=args.fd_step,
        importance=not args.no_importance,
        sim_replications=getattr(args, "replications", 256),
        sim_rel_error=getattr(args, "rel_error", None),
        sim_horizon=getattr(args, "sim_horizon", 10_000.0),
        isolate_failures=getattr(args, "isolate_failures", False),
        state_budget=getattr(args, "state_budget", None),
        retry=retry_from_args(args),
        checkpoint=checkpoint,
        checkpoint_every=getattr(args, "checkpoint_every", 1),
        resume=getattr(args, "resume", False),
    )
    result = run_sweep(factory, config)
    _log_summary(factory.name, result)
    save_cache_file(cache, args)
    if args.sweep_out:
        npz_path, manifest_path = result.save(args.sweep_out)
        log.info("  store: %s + %s", npz_path, manifest_path)
    return result


def _log_summary(name: str, result: SweepResult) -> None:
    totals = result.manifest["totals"]
    log.info(
        "%s sweep: %s points, %s evaluations, %.1fs",
        name,
        totals["points"],
        totals["evaluations"],
        totals["seconds"],
    )
    _log_error_rows(result)
    cache = result.manifest.get("cache")
    if cache:
        log.info(
            "  cache: %s hits / %s misses (hit rate %.0f%%), saved %.2fs",
            cache["hits"],
            cache["misses"],
            100.0 * cache["hit_rate"],
            cache["saved_seconds"],
        )
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


def _log_error_rows(result: SweepResult) -> None:
    errors = result.manifest["totals"].get("errors", 0)
    if errors:
        log.warning("  %s point(s) failed and were isolated as error rows", errors)


__all__ = [
    "add_pipeline_arguments",
    "add_resilience_arguments",
    "add_sweep_arguments",
    "load_cache_file",
    "parse_grid_specs",
    "parse_prior_specs",
    "retry_from_args",
    "run_sweep_cli",
    "save_cache_file",
]
