"""The repository's benchmark: DDS workloads through the Arcade pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dds-paper-branching --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload runs in a fresh worker process pinned to one thread per
numerical library, between set-up probes (fresh processes that only import
and build the inputs).  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed check makes
the exit code non-zero.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, RUN_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dds-paper-branching", "dds-wide-3x6", "dds-sweep-27")
#: Set-up probes per untraced run, one before and two after the timed
#: worker; with the worker's own set-up they give the samples whose median
#: is ``setup_s``.
SETUP_PROBES = 3
#: Wall-clock budget of one workload, below the 180 s a run may take.
RUN_TIMEOUT_S = 170.0
#: One thread per numerical library: a run uses one core.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MAX_PRINTED_PROBLEMS = 10
#: End-to-end metric -> unit, in print order.
END_TO_END_UNITS = {"setup_s": "s", "eval_s": "s", "eval_cpu_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    """A worker process failed, timed out or printed no record."""


def git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    completed = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--tags"],
        cwd=ROOT, capture_output=True, text=True, timeout=30, check=False,
    )
    return completed.stdout.strip() or "unknown"


def spawn_worker(arguments: list[str], deadline: float) -> dict:
    """Run ``worker.py`` to completion and return its JSON record."""
    environment = dict(os.environ, **THREAD_ENV)
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    command = [
        sys.executable, str(HERE / "worker.py"), *arguments,
        "--spawned-at", repr(spawned_at),
    ]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=environment, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0), check=False,
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerError(f"worker timed out: {' '.join(arguments)}") from error
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise WorkerError(
            f"worker exited with code {completed.returncode}: {' '.join(arguments)}"
        )
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes around the timed worker; the summary of one workload.

    Probes run before and after the timed worker, so a slow spell of the
    host at one end of the run does not set the median alone.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed)]
    probe = common + ["--seconds", "0", "--trace", "0", "--setup-only"]
    probes = 0 if trace else SETUP_PROBES
    setups = [spawn_worker(probe, deadline)["setup_s"] for _ in range(probes // 2)]
    arguments = common + ["--seconds", repr(seconds), "--trace", str(int(trace))]
    spans = HERE / "out" / f"{name}-seed{seed}.spans.jsonl"
    if trace:
        arguments += ["--spans", str(spans)]
    record = spawn_worker(arguments, deadline)
    setups += [spawn_worker(probe, deadline)["setup_s"] for _ in range(probes - probes // 2)]
    return summarise(name, seed, seconds, trace, record, setups)


def summarise(
    name: str, seed: int, seconds: float, trace: bool, record: dict, setups: list[float]
) -> dict:
    """Metrics and provenance of one workload from its worker record."""
    setups = setups + [record["setup_s"]]
    samples = record["samples"]
    timed = [sample for sample in samples if not sample["warmup"]]
    summary = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git": git_describe(),
        "env": dict(record["env"], threads=THREAD_ENV),
        "attempted": len(samples),
        "failed": sum(1 for sample in samples if sample["problems"]),
        "problems": [problem for sample in samples for problem in sample["problems"]],
        "samples": samples,
        "setup_samples": setups,
    }
    if trace:
        layers = record["layers"]
        summary["metrics"] = {metric: layers[metric] for metric in sorted(layers)}
        summary["missing_layers"] = record["missing_layers"]
        summary["missing_bindings"] = record["missing_bindings"]
    else:
        summary["metrics"] = {
            "setup_s": statistics.median(setups),
            "eval_s": statistics.median(sample["wall_s"] for sample in timed),
            "eval_cpu_s": statistics.median(sample["cpu_s"] for sample in timed),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    return summary


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    units = {metric.name: metric.unit for metric in LAYER_METRICS}
    units.update((name, unit) for name, unit, _ in RUN_METRICS)
    return units[metric]


def print_summary(summary: dict) -> None:
    env = summary["env"]
    print(
        f"== {summary['workload']}  seed={summary['seed']}  seconds={summary['seconds']:g}"
        f"  trace={summary['trace']}"
    )
    print(
        f"   nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']}"
        f" numpy={env['numpy']} scipy={env['scipy']} git={summary['git']}"
    )
    evaluations = summary["attempted"]
    timed = sum(1 for sample in summary["samples"] if not sample["warmup"])
    for metric, value in summary["metrics"].items():
        if metric == "setup_s":
            note = f"median of {len(summary['setup_samples'])} processes"
        elif metric in ("eval_s", "eval_cpu_s"):
            note = f"median of {timed} evaluations after a warm-up"
        elif metric == "peak_rss_mb":
            note = "timed worker process"
        elif metric == "trace.overhead":
            note = "median traced over median untraced"
        else:
            note = "mean of traced evaluations"
        print(f"   {metric:<32} {value:>16.6g} {unit_of(metric):<6} ({note})")
    error_rate = summary["failed"] / summary["attempted"]
    print(
        f"   {'error_rate':<32} {error_rate:>16.6g} {'ratio':<6}"
        f" ({summary['failed']} of {evaluations} evaluations failed)"
    )
    if summary.get("missing_layers"):
        print(f"   missing layers: {', '.join(summary['missing_layers'])}"
              f" (unresolved bindings: {', '.join(summary['missing_bindings'])})")
    problems = summary["problems"]
    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"   FAILED: {problem.strip()}")
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"   ... and {len(problems) - MAX_PRINTED_PROBLEMS} more (see the summary file)")


def write_summary(summary: dict) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{summary['workload']}-seed{summary['seed']}-trace{summary['trace']}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


def result_line(summaries: list[dict]) -> dict:
    """The final JSON object; metric names get a workload prefix when several ran."""
    metrics = {}
    for summary in summaries:
        prefix = f"{summary['workload']}." if len(summaries) > 1 else ""
        for name, value in summary["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit_of(name)}
    failed = sum(summary["failed"] for summary in summaries)
    return {
        "correct": failed == 0,
        "attempted": sum(summary["attempted"] for summary in summaries),
        "failed": failed,
        "metrics": metrics,
    }


def exit_status(result: dict) -> int:
    """0 only when every evaluation passed its checks."""
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Arcade DDS benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 2
        write_summary(summary)
        print_summary(summary)
        summaries.append(summary)
    result = result_line(summaries)
    print(json.dumps(result))
    return exit_status(result)


if __name__ == "__main__":
    sys.exit(main())
