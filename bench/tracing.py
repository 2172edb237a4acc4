"""Per-layer spans, recorded from outside the library.

A span is recorded by replacing a module attribute through which one
layer calls another (or through which the benchmark calls a public entry
point) with a timing wrapper.  Spans nest through a stack, so a span's
self time is its duration minus the durations of the spans it caused.
Spans are aggregated per hook as they close, not stored one by one: the
no-gap sweep alone opens about 340,000 range-solver spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Iterator

from sigma_spectra import constructions, engine, validator

# (module, attribute, layer).  The span name is "<module>.<attribute>".
HOOKS: tuple[tuple[ModuleType, str, str], ...] = (
    (engine, "spectrum", "engine"),
    (engine, "decide_k", "engine"),
    (engine, "range_of_keys", "range"),
    (engine, "canonical_colouring", "canonical"),
    (validator, "range_of_keys", "range"),
    (validator, "is_valid", "validator"),
    (validator, "find_violation", "validator"),
    (constructions, "k_colourable", "engine"),
    (constructions, "is_valid", "validator"),
    (constructions, "canonical_colouring", "canonical"),
    (constructions, "layered_colouring", "constructions"),
    (constructions, "beta_colouring", "constructions"),
    (constructions, "mono_colouring", "constructions"),
    (constructions, "spectrum_walk_steps", "constructions"),
)


def span_name(module: ModuleType, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


@dataclass
class Span:
    """Aggregate of every closed span of one hook."""

    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0


def span_cost_s(calls: int = 100_000) -> float:
    """The time one span adds to a call, measured on a function that does
    nothing."""
    tracer = Tracer()
    tracer.spans["noop"] = Span("none")

    def noop():
        return None

    traced = tracer._wrap("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    return (clock() - start - bare) / calls


class Tracer:
    def __init__(self) -> None:
        self.spans = {span_name(m, a): Span(layer) for m, a, layer in HOOKS}
        self.results: dict[str, list[Any]] = {
            "engine.decide_k": [], "constructions.spectrum_walk_steps": []}
        # time covered by child spans, one entry per open span plus the root
        self._children = [0.0]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        span = self.spans[name]
        children = self._children
        keep = self.results.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = children.pop()
                children[-1] += took
                span.calls += 1
                span.total_s += took
                span.self_s += took - inner
                if took > span.max_s:
                    span.max_s = took
            if keep is not None:
                keep.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every hook for the duration of the block, then put each
        original attribute back, also when the block raises."""
        saved = []
        try:
            for module, attr, _layer in HOOKS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name(module, attr), original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, range_cache: dict[str, int], wall_s: float
                      ) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of one traced job list, as name ->
        (value, unit).  ``range_cache`` holds the change in
        ``validator._range_of.cache_info()`` over the job list."""
        spans = self.spans

        def layer_self(layer: str) -> float:
            return sum(s.self_s for s in spans.values() if s.layer == layer)

        def layer_total(layer: str) -> float:
            return sum(s.total_s for s in spans.values() if s.layer == layer)

        decisions = self.results["engine.decide_k"]
        nodes = sum(d.nodes for d in decisions)
        nodes_infeasible = sum(d.nodes for d in decisions
                               if d.verdict == "infeasible")
        engine_self = layer_self("engine")
        constructions_self = layer_self("constructions")
        range_s = layer_total("range")
        canonical_s = layer_total("canonical")
        by_caller = {caller: spans[f"{caller}.canonical_colouring"]
                     for caller in ("engine", "constructions")}
        is_valid = (spans["validator.is_valid"], spans["constructions.is_valid"])
        find_violation = spans["validator.find_violation"]

        def share(part: float) -> float:
            return part / wall_s if wall_s else 0.0

        m: dict[str, tuple[float, str]] = {
            "engine.nodes": (nodes, "count"),
            "engine.nodes_infeasible": (nodes_infeasible, "count"),
            "engine.infeasible_node_share":
                (nodes_infeasible / nodes if nodes else 0.0, "ratio"),
            "engine.self_s": (engine_self, "s"),
            "engine.self_share": (share(engine_self), "ratio"),
            "engine.nodes_per_s":
                (nodes / engine_self if engine_self else 0.0, "1/s"),
            "engine.decisions": (len(decisions), "count"),
            "engine.unknown":
                (sum(d.verdict == "unknown" for d in decisions), "count"),
            "validator.range_calls":
                (range_cache["hits"] + range_cache["misses"], "count"),
            "validator.range_s": (range_s, "s"),
            "validator.range_share": (share(range_s), "ratio"),
            "validator.range_cache_hits": (range_cache["hits"], "count"),
            "validator.range_cache_misses": (range_cache["misses"], "count"),
            "validator.range_cache_size": (range_cache["size"], "count"),
            "validator.is_valid_calls": (sum(s.calls for s in is_valid), "count"),
            "validator.is_valid_s": (sum(s.total_s for s in is_valid), "s"),
            "validator.find_violation_calls": (find_violation.calls, "count"),
            "validator.find_violation_s": (find_violation.total_s, "s"),
            "core.canonical_calls":
                (sum(s.calls for s in by_caller.values()), "count"),
            "core.canonical_s": (canonical_s, "s"),
            "core.canonical_share": (share(canonical_s), "ratio"),
            "core.canonical_max_ms":
                (1000 * max(s.max_s for s in by_caller.values()), "ms"),
        }
        for caller, s in by_caller.items():
            m[f"core.canonical_calls.{caller}"] = (s.calls, "count")
            m[f"core.canonical_s.{caller}"] = (s.total_s, "s")
            m[f"core.canonical_max_ms.{caller}"] = (1000 * s.max_s, "ms")
        m["constructions.walk_steps"] = (
            sum(len(steps) for steps in
                self.results["constructions.spectrum_walk_steps"]), "count")
        m["constructions.engine_fallbacks"] = (
            spans["constructions.k_colourable"].calls, "count")
        m["constructions.self_s"] = (constructions_self, "s")
        m["constructions.self_share"] = (share(constructions_self), "ratio")
        # the wrappers' own cost, estimated apart from the noisy
        # traced-minus-untraced difference of whole samples
        count = sum(s.calls for s in spans.values())
        cost = span_cost_s()
        m["trace.spans"] = (count, "count")
        m["trace.span_cost_us"] = (1e6 * cost, "us")
        m["trace.cost_estimate_s"] = (count * cost, "s")
        m["trace.cost_estimate_share"] = (share(count * cost), "ratio")
        return m
