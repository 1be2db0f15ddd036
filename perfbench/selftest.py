"""Self-tests of the benchmark's own code (not of the pipeline it measures).

Run from the root of a checkout::

    python3 perfbench/selftest.py

They take about twenty seconds; the slowest runs two evaluations of the
``dds-sweep-27`` workload.
"""

from __future__ import annotations

import ast
import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from repro import quickstart_model  # noqa: E402
from repro.analysis import ArcadeEvaluator  # noqa: E402
from repro.casestudies.dds import DDSParameters  # noqa: E402
from repro.ctmc import point_availability  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def traced_quickstart(tracer: tracing.Tracer) -> float:
    """One small evaluation through every single-model layer; its wall time."""
    tracer.request = 1
    started = tracer.clock()
    evaluator = ArcadeEvaluator(quickstart_model(), cache="on")
    evaluator.unavailability()
    evaluator.unreliability(1000.0)
    point_availability(evaluator.ctmc, 10.0)
    return tracer.clock() - started


class TracerTests(unittest.TestCase):
    def test_self_times_of_a_synthetic_nested_call(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def product():
            clock.advance(2.0)

        def refine():
            clock.advance(0.5)

        def minimize():
            clock.advance(1.0)
            traced_refine()

        def composition():
            clock.advance(1.0)
            traced_product()
            clock.advance(3.0)
            traced_product()
            traced_minimize()

        traced_product = tracer.wrap("ioimc.compose", product)
        traced_refine = tracer.wrap("lumping.refine", refine)
        traced_minimize = tracer.wrap("lumping.minimize", minimize)
        tracer.wrap("compose_model", composition)()
        clock.advance(0.25)
        summary = tracing.rollup(tracer.spans, eval_seconds=clock.now)

        self.assertEqual(summary.seconds["compose_model"], 9.5)
        self.assertEqual(summary.seconds["ioimc.compose"], 4.0)
        self.assertEqual(summary.calls["ioimc.compose"], 2)
        self.assertEqual(summary.seconds["lumping.minimize"], 1.5)
        self.assertEqual(
            summary.layer_self, {"composer": 4.0, "ioimc": 4.0, "lumping": 1.5}
        )
        self.assertEqual(summary.other_seconds, 0.25)
        parents = {span.name: span.parent for span in tracer.spans}
        ids = {span.name: span.id for span in tracer.spans}
        self.assertEqual(parents["lumping.refine"], ids["lumping.minimize"])
        self.assertIsNone(parents["compose_model"])

    def test_layer_self_times_and_other_add_up_to_the_traced_evaluation(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall = traced_quickstart(tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.missing, [])
        self.assertEqual(tracer.missing_layers(), [])
        summary = tracing.rollup(tracer.spans, wall)
        total = sum(summary.layer_self.values()) + summary.other_seconds
        self.assertAlmostEqual(total, wall, delta=1e-9)
        self.assertGreaterEqual(summary.other_seconds, 0.0)
        self.assertEqual(
            set(summary.layer_self),
            {"arcade.semantics", "composer", "composer.cache", "ioimc", "lumping", "ctmc"},
        )
        metrics = tracing.layer_metrics(summary, tracer)
        self.assertEqual(metrics["translate.calls"], 2)
        self.assertGreater(metrics["ctmc.transient.window"], 0)
        self.assertEqual(metrics["sweep.points"], 0)

    def test_uninstall_restores_the_bindings(self):
        import repro.composer.composer as composer_module

        original = composer_module.compose
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(composer_module.compose, original)
        tracer.uninstall()
        self.assertIs(composer_module.compose, original)

    def test_a_missing_binding_is_reported_as_a_missing_layer(self):
        bindings = [
            binding for binding in tracing.BINDINGS if binding[2] != "ioimc.hide"
        ] + [
            ("repro.composer.composer", "hide_renamed_away", "ioimc.hide"),
            ("repro.no_such_module", "hide", "ioimc.hide"),
        ]
        tracer = tracing.Tracer()
        tracer.install(bindings)
        try:
            wall = traced_quickstart(tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(
            tracer.missing,
            ["repro.composer.composer:hide_renamed_away", "repro.no_such_module:hide"],
        )
        self.assertEqual(tracer.missing_layers(), ["ioimc"])
        metrics = tracing.layer_metrics(tracing.rollup(tracer.spans, wall), tracer)
        self.assertNotIn("ioimc.hide.s", metrics)
        self.assertNotIn("ioimc.self_s", metrics)
        self.assertIn("ioimc.compose.s", metrics)


class FixedWorkload:
    """A workload whose evaluations do nothing and always pass."""

    def evaluate(self) -> dict:
        return {}

    def check(self, outputs: dict) -> list:
        return []

    def verify(self, outputs: dict) -> list:
        return []


class TracedRunTests(unittest.TestCase):
    def test_an_untraced_run_is_a_warm_up_then_timed_evaluations(self):
        samples = worker.run_timed(FixedWorkload(), 0.0, trace=False)["samples"]
        self.assertEqual([s["warmup"] for s in samples], [True, False])
        self.assertEqual([s["traced"] for s in samples], [False, False])

    def test_the_warm_up_is_checked_but_not_timed(self):
        record = {
            "setup_s": 1.0, "peak_rss_mb": 1.0, "env": {},
            "samples": [
                {"wall_s": 100.0, "cpu_s": 100.0, "traced": False, "warmup": True,
                 "problems": []},
                {"wall_s": 2.0, "cpu_s": 1.5, "traced": False, "warmup": False,
                 "problems": []},
            ],
        }
        summary = run.summarise("dds-sweep-27", 0, 0.0, False, record, [])
        self.assertEqual(summary["metrics"]["eval_s"], 2.0)
        self.assertEqual(summary["metrics"]["eval_cpu_s"], 1.5)
        self.assertEqual(summary["attempted"], 2)

    def test_a_traced_run_is_a_warm_up_then_untraced_traced_pairs(self):
        samples = worker.run_timed(FixedWorkload(), 0.0, trace=True)["samples"]
        self.assertEqual([s["warmup"] for s in samples], [True, False, False])
        self.assertEqual([s["traced"] for s in samples], [False, False, True])

    def test_overhead_is_a_ratio_of_medians_without_the_warm_up(self):
        walls = [100.0, 2.0, 3.0, 4.0, 5.0, 3.0, 7.0]
        samples = [
            {"wall_s": wall, "traced": index >= 2 and index % 2 == 0,
             "warmup": index == 0, "outputs": {}}
            for index, wall in enumerate(walls)
        ]
        metrics = worker.layer_report(samples, tracing.Tracer())
        self.assertEqual(metrics["trace.overhead"], 5.0 / 3.0)
        self.assertEqual(metrics["trace.eval_s"], 5.0)


class CorrectnessGateTests(unittest.TestCase):
    def test_a_wrong_pinned_value_fails_every_evaluation_and_the_run(self):
        workload = workloads.Sweep(seed=0)
        workload.structure = dict(workload.structure, rows=workload.structure["rows"] + 1)
        timed = worker.run_timed(workload, 0.0, trace=False)
        record = worker.record_of(timed, setup_s=1.0)
        summary = run.summarise("dds-sweep-27", 0, 0.0, False, record, [])
        result = run.result_line([summary])
        self.assertEqual(result["attempted"], 2)
        self.assertEqual(result["failed"] / result["attempted"], 1.0)
        self.assertFalse(result["correct"])
        self.assertNotEqual(run.exit_status(result), 0)
        self.assertIn("rows: 34, expected 35", summary["problems"][0])

    def test_pins_mirror_the_golden_regression_tests(self):
        source = (ROOT / "tests" / "test_golden_regression.py").read_text(encoding="utf-8")
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "DDS_GOLDEN" for target in node.targets
            ):
                self.assertEqual(ast.literal_eval(node.value), workloads.DDS_GOLDEN)
                return
        self.fail("DDS_GOLDEN not found in tests/test_golden_regression.py")

    def test_oracle_reproduces_the_paper_golden_values(self):
        paper = DDSParameters()
        golden = workloads.DDS_GOLDEN
        self.assertAlmostEqual(
            oracle.steady_unavailability(paper) / (1.0 - golden["availability"]), 1.0,
            delta=1e-9,
        )
        self.assertAlmostEqual(
            oracle.no_repair_unreliability(paper, 840.0),
            1.0 - golden["reliability_5_weeks"], delta=1e-12,
        )
        late = oracle.point_unavailability(paper, 8760.0)
        self.assertTrue(math.isclose(late, oracle.steady_unavailability(paper), rel_tol=1e-9))

    def test_seed_zero_keeps_the_paper_rates(self):
        self.assertEqual(workloads.failure_rate_scale(0), 1.0)
        for seed in range(1, 50):
            self.assertTrue(0.5 <= workloads.failure_rate_scale(seed) <= 2.0)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(list(run.WORKLOADS), list(workloads.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        declared = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
        produced = {(m.name, m.unit, m.better) for m in tracing.LAYER_METRICS}
        produced |= set(tracing.RUN_METRICS)
        self.assertEqual(declared, produced)


if __name__ == "__main__":
    unittest.main()
