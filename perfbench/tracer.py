"""Per-layer timing for the traced benchmark run, measured from outside ``src/``.

The traced run replaces each layer's public function *at the binding the
pipeline calls through* with a timing wrapper: ``composer.py`` does
``from ..ioimc import compose``, so the wrapper for I/O-IMC products goes on
``repro.composer.composer.compose``, not on ``repro.ioimc.compose``.  The
wrappers keep a call stack, so a span's self time is its duration minus the
time its child spans cover.  Spans stay in memory; the worker writes them out
when the run ends.

A binding that no longer exists is recorded in :attr:`Tracer.missing`, and
every metric derived from it is left out of the rollup, never reported as 0.
A probe that cannot read its counts raises, so the traced evaluation fails.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    """One timed call of a wrapped function."""

    id: int
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    child_seconds: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


def _translated_states(args, kwargs, result) -> dict:
    return {"states": sum(block.num_states for block in result.blocks.values())}


def _composition(args, kwargs, result) -> dict:
    statistics = result.statistics
    return {
        "steps": len(statistics.steps),
        "peak_states": statistics.largest_intermediate_states,
    }


def _product_states(args, kwargs, result) -> dict:
    return {"states": result.num_states}


def _minimised_states(args, kwargs, result) -> dict:
    return {"states_in": args[0].num_states, "states_out": result.quotient.num_states}


def _lumped_states(args, kwargs, result) -> dict:
    return {"states": result.quotient.num_states}


def _window_width(args, kwargs, result) -> dict:
    left, right, _ = result
    return {"window": right - left + 1}


#: Span name -> (layer, probe).  Layer names are the module names of
#: ``repro``; a probe turns a call's arguments and result into work counts.
SPANS: dict[str, tuple[str, Callable | None]] = {
    "translate": ("arcade.semantics", _translated_states),
    "compose_model": ("composer", _composition),
    "cache.fingerprint": ("composer.cache", None),
    "cache.rebase": ("composer.cache", None),
    "ioimc.compose": ("ioimc", _product_states),
    "ioimc.hide": ("ioimc", None),
    "lumping.minimize": ("lumping", _minimised_states),
    "lumping.refine": ("lumping", None),
    "lumping.vanishing": ("lumping", None),
    "lumping.mp_cut": ("lumping", None),
    "ctmc.extract": ("ctmc", None),
    "ctmc.lump": ("ctmc", _lumped_states),
    "ctmc.steady": ("ctmc", None),
    "ctmc.transient": ("ctmc", None),
    "ctmc.poisson_window": ("ctmc", _window_width),
    "sweep.point": ("sweep", None),
}

#: Counts aggregated by maximum instead of sum.
PEAK_COUNTS = frozenset({"peak_states"})

#: (module, attribute, span): every binding the pipeline calls a layer through.
BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("repro.analysis.evaluator", "translate_model", "translate"),
    ("repro.analysis.evaluator", "compose_model", "compose_model"),
    ("repro.composer.cache", "QuotientCache.leaf_fingerprint", "cache.fingerprint"),
    ("repro.composer.composer", "rebase_actions", "cache.rebase"),
    ("repro.composer.composer", "compose", "ioimc.compose"),
    ("repro.composer.composer", "hide", "ioimc.hide"),
    ("repro.composer.composer", "minimize_strong", "lumping.minimize"),
    ("repro.composer.composer", "minimize_weak", "lumping.minimize"),
    ("repro.composer.composer", "minimize_branching", "lumping.minimize"),
    ("repro.lumping.strong", "refine_partition_vectorized", "lumping.refine"),
    ("repro.lumping.weak", "refine_partition_vectorized", "lumping.refine"),
    ("repro.lumping.branching", "refine_partition_vectorized", "lumping.refine"),
    ("repro.composer.composer", "eliminate_vanishing_chains", "lumping.vanishing"),
    ("repro.composer.composer", "maximal_progress_cut", "lumping.mp_cut"),
    ("repro.ctmc.extraction", "maximal_progress_cut", "lumping.mp_cut"),
    ("repro.composer.composer", "extract_ctmc", "ctmc.extract"),
    ("repro.composer.composer", "lump", "ctmc.lump"),
    ("repro.ctmc.measures", "steady_state_distribution", "ctmc.steady"),
    ("repro.ctmc.measures", "transient_distribution", "ctmc.transient"),
    ("repro.ctmc.absorbing", "transient_distribution", "ctmc.transient"),
    ("repro.ctmc.transient", "poisson_window", "ctmc.poisson_window"),
    ("repro.sweep.driver", "evaluate_point", "sweep.point"),
)


def _resolve(module_name: str, attribute: str):
    """``(owner, name)`` of a binding, or ``None`` when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Timing wrappers, their span stack and the finished spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: Bindings that could not be resolved, as ``module:attribute``.
        self.missing: list[str] = []
        #: Span names with at least one installed binding.
        self.covered: set[str] = set()
        #: Identifier shared by the spans of one evaluation.
        self.request = 0
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, function: Callable, probe: Callable | None = None):
        """``function`` with a span named ``name`` around every call."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(
                id=next(self._ids),
                name=name,
                request=self.request,
                parent=None if parent is None else parent.id,
                start=self.clock(),
            )
            self._stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                if parent is not None:
                    parent.child_seconds += span.seconds
                self.spans.append(span)
            if probe is not None:
                span.counts = probe(args, kwargs, result)
            return result

        return traced

    def install(self, bindings=BINDINGS) -> None:
        """Patch every resolvable binding; record the rest as missing.

        The worker installs before each traced evaluation and uninstalls
        after it, so ``missing`` and ``covered`` describe the last install.
        """
        self.missing = []
        self.covered = set()
        for module_name, attribute, span_name in bindings:
            resolved = _resolve(module_name, attribute)
            if resolved is None:
                self.missing.append(f"{module_name}:{attribute}")
                continue
            owner, name = resolved
            original = getattr(owner, name)
            _, probe = SPANS[span_name]
            setattr(owner, name, self.wrap(span_name, original, probe))
            self._installed.append((owner, name, original))
            self.covered.add(span_name)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def missing_layers(self) -> list[str]:
        """Layers with a span that no installed binding feeds."""
        return sorted({layer for name, (layer, _) in SPANS.items() if name not in self.covered})

    def records(self) -> list[dict]:
        """The finished spans as JSON-ready dicts (for the span file)."""
        return [
            {
                "id": span.id,
                "name": span.name,
                "layer": SPANS[span.name][0],
                "request": span.request,
                "parent": span.parent,
                "start": span.start,
                "end": span.end,
                "self_s": span.self_seconds,
                "counts": span.counts,
            }
            for span in self.spans
        ]


@dataclass
class Rollup:
    """Per-span and per-layer totals of one evaluation."""

    seconds: dict[str, float]
    calls: dict[str, int]
    counts: dict[str, dict[str, float]]
    layer_self: dict[str, float]
    other_seconds: float


def rollup(spans: list[Span], eval_seconds: float) -> Rollup:
    """Sum one evaluation's spans by name and by layer.

    ``other_seconds`` is the evaluation time under no span: the evaluation
    minus the self time of every span, so the layer self times and
    ``other_seconds`` add up to ``eval_seconds``.
    """
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, float]] = {}
    layer_self: dict[str, float] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        seconds[span.name] = seconds.get(span.name, 0.0) + span.seconds
        layer = SPANS[span.name][0]
        layer_self[layer] = layer_self.get(layer, 0.0) + span.self_seconds
        bucket = counts.setdefault(span.name, {})
        for key, value in span.counts.items():
            if key in PEAK_COUNTS:
                bucket[key] = max(bucket.get(key, 0), value)
            else:
                bucket[key] = bucket.get(key, 0) + value
    return Rollup(
        seconds=seconds,
        calls=calls,
        counts=counts,
        layer_self=layer_self,
        other_seconds=eval_seconds - sum(layer_self.values()),
    )


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric computed from a rollup."""

    name: str
    unit: str
    better: str
    #: Spans the metric needs; it is missing unless all of them are traced.
    needs: tuple[str, ...]
    value: Callable[[Rollup], float]


def _seconds(name: str, span: str) -> LayerMetric:
    return LayerMetric(name, "s", "lower", (span,), lambda r: r.seconds.get(span, 0.0))


def _calls(name: str, span: str, better: str = "lower") -> LayerMetric:
    return LayerMetric(name, "count", better, (span,), lambda r: r.calls.get(span, 0))


def _count(name: str, span: str, key: str, unit: str = "states") -> LayerMetric:
    return LayerMetric(
        name, unit, "lower", (span,),
        lambda r: r.counts.get(span, {}).get(key, 0),
    )


def _layer_self(layer: str) -> LayerMetric:
    spans = tuple(name for name, (owner, _) in SPANS.items() if owner == layer)
    return LayerMetric(
        f"{layer}.self_s", "s", "lower", spans, lambda r: r.layer_self.get(layer, 0.0)
    )


def _quotient_seconds(r: Rollup) -> float:
    return r.seconds.get("lumping.minimize", 0.0) - r.seconds.get("lumping.refine", 0.0)


#: The per-layer metrics a rollup yields.  The cache counters and the
#: whole-run figures come from the worker instead (see ``RUN_METRICS``).
LAYER_METRICS = (
    _seconds("translate.s", "translate"),
    _calls("translate.calls", "translate"),
    _count("translate.states", "translate", "states"),
    _layer_self("arcade.semantics"),
    _seconds("compose_model.s", "compose_model"),
    _layer_self("composer"),
    _count("composer.steps", "compose_model", "steps", unit="count"),
    _count("composer.peak_states", "compose_model", "peak_states"),
    _seconds("cache.fingerprint.s", "cache.fingerprint"),
    _seconds("cache.rebase.s", "cache.rebase"),
    _layer_self("composer.cache"),
    _seconds("ioimc.compose.s", "ioimc.compose"),
    _calls("ioimc.compose.calls", "ioimc.compose"),
    _count("ioimc.compose.states", "ioimc.compose", "states"),
    _seconds("ioimc.hide.s", "ioimc.hide"),
    _layer_self("ioimc"),
    _seconds("lumping.minimize.s", "lumping.minimize"),
    _calls("lumping.minimize.calls", "lumping.minimize"),
    _count("lumping.minimize.states_in", "lumping.minimize", "states_in"),
    _count("lumping.minimize.states_out", "lumping.minimize", "states_out"),
    _seconds("lumping.refine.s", "lumping.refine"),
    LayerMetric(
        "lumping.quotient.s", "s", "lower",
        ("lumping.minimize", "lumping.refine"), _quotient_seconds,
    ),
    _seconds("lumping.vanishing.s", "lumping.vanishing"),
    _seconds("lumping.mp_cut.s", "lumping.mp_cut"),
    _layer_self("lumping"),
    _seconds("ctmc.extract.s", "ctmc.extract"),
    _seconds("ctmc.lump.s", "ctmc.lump"),
    _count("ctmc.states", "ctmc.lump", "states"),
    _seconds("ctmc.steady.s", "ctmc.steady"),
    _seconds("ctmc.transient.s", "ctmc.transient"),
    _count("ctmc.transient.window", "ctmc.poisson_window", "window", unit="count"),
    _layer_self("ctmc"),
    _calls("sweep.points", "sweep.point", better="higher"),
    _seconds("sweep.point.s", "sweep.point"),
    _layer_self("sweep"),
)

#: Per-layer metrics the worker adds to the rollup's: the cache counters it
#: reads from the public cache object, and the whole-run figures.
#: (name, unit, better)
RUN_METRICS = (
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("trace.eval_s", "s", "lower"),
    ("other.s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def layer_metrics(result: Rollup, tracer: Tracer) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value whose spans were all traced.

    A metric that needs a span with no installed binding is left out: a
    layer that was not measured is missing, not zero.
    """
    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        if not all(span in tracer.covered for span in metric.needs):
            continue
        values[metric.name] = metric.value(result)
    return values
