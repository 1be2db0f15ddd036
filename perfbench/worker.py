"""One benchmark workload in a fresh process: set up, time, check, trace.

``run.py`` starts this script once per set-up probe and once for the timed
run; it prints one JSON record as its last line of output::

    python3 perfbench/worker.py --workload dds-sweep-27 --seed 0 --seconds 25 \
        --trace 0 --spawned-at <CLOCK_MONOTONIC seconds> [--setup-only]

Set-up time runs from ``--spawned-at`` (taken by the parent just before the
process was started) to the start of the first timed evaluation: the
interpreter start, ``import repro`` with its scipy imports, and building the
workload's model.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics, rollup

ROOT = Path(__file__).resolve().parent.parent


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def attempt(step, *args) -> tuple[object, list[str]]:
    """``step(*args)`` and no problem, or ``None`` and the raised traceback."""
    try:
        return step(*args), []
    except Exception:  # noqa: BLE001 - every failure is counted, with its traceback
        return None, [traceback.format_exc()]


def run_timed(workload, seconds: float, *, trace: bool) -> dict:
    """Evaluate ``workload`` repeatedly for ``seconds``; check every result.

    A warm-up evaluation runs first; its time is not used.  Untraced, the
    evaluations after it are timed the same way until ``seconds`` have
    passed; at least one runs.  Traced, pairs of one untraced evaluation
    (the base of ``trace.overhead``) and one evaluation with the timing
    wrappers installed follow it; at least one pair runs.  Every
    evaluation, the warm-up too, is checked, and fails when it raises, or
    when its check raises or reports a problem.
    """
    samples: list[dict] = []
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    while True:
        index = len(samples)
        traced = trace and index >= 2 and index % 2 == 0
        if traced:
            tracer.request = index
            tracer.install()
        # Start every evaluation from a collected heap, as the first one in
        # a fresh process does, so no evaluation pays for its predecessor's
        # garbage.
        gc.collect()
        wall_started = time.perf_counter()
        cpu_started = cpu_seconds()
        outputs, problems = attempt(workload.evaluate)
        wall = time.perf_counter() - wall_started
        cpu = cpu_seconds() - cpu_started
        if traced:
            tracer.uninstall()
        if outputs is not None:
            found, problems = attempt(workload.check, outputs)
            problems += found or []
        samples.append({"wall_s": wall, "cpu_s": cpu, "traced": traced,
                        "warmup": index == 0,
                        "outputs": outputs, "problems": problems})
        enough = traced if trace else index >= 1
        if enough and time.perf_counter() - started >= seconds:
            break
    rss = peak_rss_mb()
    last = samples[-1]
    if last["outputs"] is not None:
        found, problems = attempt(workload.verify, last["outputs"])
        last["problems"] += problems + (found or [])
    return {"samples": samples, "peak_rss_mb": rss, "tracer": tracer}


def layer_report(samples: list[dict], tracer) -> dict:
    """Per-layer metrics: the mean over the traced evaluations.

    Means (not medians) keep the identity that the layer self times and
    ``other.s`` add up to ``trace.eval_s``.  ``trace.overhead`` is the median
    traced wall time over the median wall time of the untraced evaluations
    that alternate with them (the warm-up left out).
    """
    base = [
        sample["wall_s"] for sample in samples
        if not sample["traced"] and not sample["warmup"]
    ]
    per_evaluation = []
    for request, sample in enumerate(samples):
        if not sample["traced"]:
            continue
        spans = [span for span in tracer.spans if span.request == request]
        summary = rollup(spans, sample["wall_s"])
        values = layer_metrics(summary, tracer)
        outputs = sample["outputs"] or {}
        hits = outputs.get("cache_hits", 0)
        misses = outputs.get("cache_misses", 0)
        values.update({
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "trace.eval_s": sample["wall_s"],
            "other.s": summary.other_seconds,
        })
        per_evaluation.append(values)
    names = set.intersection(*(set(values) for values in per_evaluation))
    metrics = {
        name: statistics.fmean(values[name] for values in per_evaluation)
        for name in names
    }
    traced = [sample["wall_s"] for sample in samples if sample["traced"]]
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(base)
    return metrics


def write_spans(path: Path, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in tracer.records():
            handle.write(json.dumps(record) + "\n")


def record_of(run: dict, setup_s: float) -> dict:
    """The JSON record a worker prints for ``run.py``."""
    samples = run["samples"]
    record = {
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_mb"],
        "env": environment(),
        "samples": [
            {key: sample[key] for key in ("wall_s", "cpu_s", "traced", "warmup", "problems")}
            for sample in samples
        ],
    }
    tracer = run["tracer"]
    if tracer is not None:
        record["layers"] = layer_report(samples, tracer)
        record["missing_bindings"] = tracer.missing
        record["missing_layers"] = tracer.missing_layers()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    import repro

    source = ROOT / "src"
    if source not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {source}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = run_timed(workload, args.seconds, trace=bool(args.trace))
    record = record_of(run, setup_s)
    if run["tracer"] is not None and args.spans is not None:
        write_spans(args.spans, run["tracer"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
