"""In-memory spans around fibanyon's public functions, and the per-layer
numbers derived from them.

The program is not modified: :class:`Instrumentation` replaces module and
class attributes with wrappers while installed and puts the originals back
when uninstalled.  Calls are counted at every wrapped function; a span is
opened only where a call crosses from one layer (module) into another, or
for the few functions that a per-layer metric names (:data:`ALWAYS_SPAN`).
Calls inside a layer therefore cost a counter increment, not a span, which
keeps the tracing overhead small on the hot per-letter paths.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover.  ``_linalg`` is private and is not wrapped,
so its time counts toward whichever layer called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

LAYERS = (
    "cli",
    "anyon_model",
    "braid_space",
    "braid_compiler",
    "noise_engine",
    "benchmark_suite",
    "robustness_lab",
)

# Layers whose public functions are wrapped; ``cli`` is traced through one
# root span around ``cli.main`` instead, so its private command handlers
# count as cli self time.
WRAPPED_LAYERS = LAYERS[1:]

WRAPPED_METHODS = {
    "anyon_model": (("FusionData", "fibonacci"), ("FSymbolTable", "fibonacci"),
                    ("RSymbolTable", "fibonacci")),
    "noise_engine": (("DensityMatrix", "__init__"), ("NoiseModel", "from_json")),
    "benchmark_suite": (("CliffordGroup", "__init__"), ("CliffordGroup", "nearest")),
}
"""Class attributes wrapped besides the module-level public functions."""

ALWAYS_SPAN = frozenset({
    "braid_compiler.search_word",
    "braid_compiler.evaluate",
    "noise_engine.calibrate_t2",
    "noise_engine.predict_gate_fidelity",
    "benchmark_suite.qpt",
    "benchmark_suite.ptm_of_unitary",
    "benchmark_suite.logical_gateset",
    "benchmark_suite.physical_gateset",
    "benchmark_suite.rb_reference",
    "benchmark_suite.rb_interleaved",
    "benchmark_suite.pb_run",
    "benchmark_suite.fit_decay",
})
"""Functions that get a span even when called from their own layer."""

SEQUENCE_PROTOCOLS = ("rb_reference", "rb_interleaved", "pb_run")
FLAT_FIT_SPREAD = 1e-9
"""Peak-to-peak spread below which ``fit_decay`` takes its flat-data shortcut."""


NON_CALL_COUNTERS = frozenset({
    "braid_space.cold_builds",
    "braid_compiler.words_evaluated",
    "benchmark_suite.flat_fits",
    "benchmark_suite.sequences",
})
"""Counters that record work done rather than calls into a wrapped function."""


@dataclass
class Span:
    name: str
    layer: str
    start: int          # perf_counter_ns
    end: int
    parent: int | None  # index into the span list
    task: int | None


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.task: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, layer: str, fn: Callable, args: tuple, kwargs: dict,
             force_span: bool = False):
        self.counts[name] += 1
        stack = self._stack
        if not force_span and stack and self.spans[stack[-1]].layer == layer:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = Span(name, layer, time.perf_counter_ns(), 0,
                    stack[-1] if stack else None, self.task)
        self.spans.append(span)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()

    def to_json(self) -> str:
        return json.dumps({
            "spans": [[s.name, s.layer, s.start, s.end, s.parent, s.task] for s in self.spans],
            "counts": dict(self.counts),
        })

    def extend(self, text: str) -> None:
        """Append the spans and counts of another tracer's :meth:`to_json`."""
        data = json.loads(text)
        offset = len(self.spans)
        for name, layer, start, end, parent, task in data["spans"]:
            self.spans.append(Span(name, layer, start, end,
                                   None if parent is None else parent + offset, task))
        self.counts.update(data["counts"])


def _traced_channel(tracer: Tracer, args: dict, channel: Callable) -> Callable:
    """``word_channel`` returns a closure that ``qpt`` calls once per input
    state; give each of those calls its own count and span."""
    def traced(*a, **kw):
        return tracer.call("noise_engine.channel", "noise_engine", channel, a, kw)
    return traced


def _count_words(tracer: Tracer, args: dict, result):
    tracer.counts["braid_compiler.words_evaluated"] += result.evaluated
    return result


def _count_flat_fits(tracer: Tracer, args: dict, result):
    means = args["means"]
    if max(means) - min(means) < FLAT_FIT_SPREAD:
        tracer.counts["benchmark_suite.flat_fits"] += 1
    return result


def _count_sequences(tracer: Tracer, args: dict, result):
    tracer.counts["benchmark_suite.sequences"] += args["k"] * len(args["m_values"])
    return result


HOOKS = {
    "noise_engine.word_channel": _traced_channel,
    "braid_compiler.search_word": _count_words,
    "benchmark_suite.fit_decay": _count_flat_fits,
    **{f"benchmark_suite.{p}": _count_sequences for p in SEQUENCE_PROTOCOLS},
}
"""Counts taken from a wrapped call's bound arguments or its result."""


def _wrap(tracer: Tracer, qualname: str, layer: str, fn: Callable) -> Callable:
    force = qualname in ALWAYS_SPAN
    hook = HOOKS.get(qualname)
    if hook is None:
        def wrapper(*args, **kwargs):
            return tracer.call(qualname, layer, fn, args, kwargs, force)
    else:
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            result = tracer.call(qualname, layer, fn, args, kwargs, force)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return hook(tracer, bound.arguments, result)
    return functools.wraps(fn)(wrapper)


class Instrumentation:
    """Wrappers for every public fibanyon function, built once and swapped
    in and out of the modules by :meth:`install` / :meth:`uninstall`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: list[tuple[object, str, object, object]] = []
        for layer in WRAPPED_LAYERS:
            module = importlib.import_module(f"fibanyon.{layer}")
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrapper = _wrap(tracer, f"{layer}.{name}", layer, fn)
                    self._patches.append((module, name, fn, wrapper))
            for cls_name, attr in WRAPPED_METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                label = f"{layer}.{cls_name}" if attr == "__init__" else f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    wrapper = classmethod(_wrap(tracer, label, layer, raw.__func__))
                else:
                    wrapper = _wrap(tracer, label, layer, raw)
                self._patches.append((cls, attr, raw, wrapper))

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)


def cold_cache_builds() -> int:
    """Entries built so far by braid_space's lru-cached constructors."""
    module = importlib.import_module("fibanyon.braid_space")
    return sum(obj.cache_info().misses for obj in vars(module).values()
               if hasattr(obj, "cache_info"))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def covered_length(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def layer_metrics(tracer: Tracer, n_tasks: int) -> dict[str, float]:
    """Per-layer numbers, each per traced task unless it is a ratio or rate."""
    spans, counts = tracer.spans, tracer.counts
    n = max(n_tasks, 1)
    own = self_times(spans)
    busy: Counter[str] = Counter()
    inclusive: Counter[str] = Counter()
    for s, t in zip(spans, own):
        busy[s.layer] += t
        inclusive[s.name] += s.end - s.start
    calls: Counter[str] = Counter()
    for name, c in counts.items():
        if name not in NON_CALL_COUNTERS:
            calls[name.split(".", 1)[0]] += c

    def ms(ns: float) -> float:
        return ns / 1e6 / n

    def per_task(key: str) -> float:
        return counts.get(key, 0) / n

    m: dict[str, float] = {}
    for layer in WRAPPED_LAYERS:
        m[f"{layer}.calls"] = calls[layer] / n
        m[f"{layer}.busy_ms"] = ms(busy[layer])
    m["cli.main_ms"] = ms(busy["cli"])
    m["braid_space.cold_builds"] = per_task("braid_space.cold_builds")

    search_ns = inclusive["braid_compiler.search_word"]
    words = counts.get("braid_compiler.words_evaluated", 0)
    m["braid_compiler.search_ms"] = ms(search_ns)
    m["braid_compiler.words_evaluated"] = words / n
    m["braid_compiler.words_per_s"] = words / (search_ns / 1e9) if search_ns else 0.0
    m["braid_compiler.evaluate_calls"] = per_task("braid_compiler.evaluate")
    m["braid_compiler.evaluate_ms"] = ms(inclusive["braid_compiler.evaluate"])

    evals = counts.get("noise_engine.predict_gate_fidelity", 0)
    calibrations = counts.get("noise_engine.calibrate_t2", 0)
    m["noise_engine.fidelity_evals"] = evals / n
    m["noise_engine.fidelity_evals_per_calibration"] = evals / calibrations if calibrations else 0.0
    m["noise_engine.channel_calls"] = per_task("noise_engine.channel")
    m["noise_engine.density_matrices"] = per_task("noise_engine.DensityMatrix")

    m["benchmark_suite.qpt_calls"] = per_task("benchmark_suite.qpt")
    m["benchmark_suite.qpt_ms"] = ms(inclusive["benchmark_suite.qpt"])
    m["benchmark_suite.ptm_of_unitary_calls"] = per_task("benchmark_suite.ptm_of_unitary")
    m["benchmark_suite.ptm_of_unitary_ms"] = ms(inclusive["benchmark_suite.ptm_of_unitary"])
    m["benchmark_suite.gateset_ms"] = ms(inclusive["benchmark_suite.logical_gateset"]
                                         + inclusive["benchmark_suite.physical_gateset"])
    m["benchmark_suite.sequences"] = per_task("benchmark_suite.sequences")
    m["benchmark_suite.sequence_ms"] = ms(sum(
        t for s, t in zip(spans, own)
        if s.name in {f"benchmark_suite.{p}" for p in SEQUENCE_PROTOCOLS}))
    m["benchmark_suite.nearest_calls"] = per_task("benchmark_suite.CliffordGroup.nearest")
    fits = counts.get("benchmark_suite.fit_decay", 0)
    m["benchmark_suite.fit_calls"] = fits / n
    m["benchmark_suite.fit_ms"] = ms(inclusive["benchmark_suite.fit_decay"])
    m["benchmark_suite.fit_flat_ratio"] = (counts.get("benchmark_suite.flat_fits", 0) / fits
                                           if fits else 0.0)
    return m


def self_ms_by_task(tracer: Tracer, layer: str) -> dict[int, float]:
    """Self time of one layer per task id, in milliseconds."""
    out: Counter[int] = Counter()
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        if s.layer == layer and s.task is not None:
            out[s.task] += t / 1e6
    return dict(out)
