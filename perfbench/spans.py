"""In-memory span recorder for the benchmark's traced passes.

Spans are opened from the benchmark's own files, around calls into each
layer's public functions (the program itself is not instrumented). Every
span is aggregated on the spot per (graph, layer): calls, seconds, and self
seconds, where self time is the span minus the child spans it covers.
Nothing is written until the benchmark ends.
"""
from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


class Recorder:
    """Aggregates spans per ``(graph, layer)``.

    ``hook`` (optional) gets ``enter(graph, layer) -> token`` before a span
    starts and ``exit(token)`` after it ends, outside the timed interval;
    the Spark workload uses it to open one job group per span.
    """

    def __init__(self, hook=None):
        self.hook = hook
        self.layers: dict[str, dict[str, defaultdict]] = {}
        self.graph = ""
        self._cur: dict[str, defaultdict] = {}
        self._stack: list[float] = []

    def begin(self, graph: str) -> None:
        """Attribute the following spans to ``graph``."""
        self.graph = graph
        self._cur = self.layers.setdefault(
            graph, defaultdict(lambda: defaultdict(float))
        )

    def stat(self, layer: str) -> defaultdict:
        """The counters of ``layer`` for the current graph."""
        return self._cur[layer]

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        token = self.hook.enter(self.graph, layer) if self.hook else None
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            st = self._cur[layer]
            st["calls"] += 1
            st["s"] += dt
            st["self_s"] += dt - child
            if token is not None:
                self.hook.exit(token)

    def wrap(self, layer: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(stat, args, result)`` adds
        layer-specific counters once the span has ended."""

        def wrapper(*args, **kwargs):
            out = self.call(layer, fn, *args, **kwargs)
            if after is not None:
                after(self._cur[layer], args, out)
            return out

        return wrapper

    def self_total(self, graph: str) -> float:
        """Σ self seconds over every layer of ``graph``."""
        return sum(st["self_s"] for st in self.layers.get(graph, {}).values())


class Patch:
    """Swap module attributes for the duration of a ``with`` block.

    ``targets`` maps ``"module:attr"`` to a factory taking the original
    callable and returning its replacement.
    """

    def __init__(self, targets: dict):
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for spec, make in self.targets.items():
            mod_name, attr = spec.split(":")
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, make(orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        return False


def _add(dst: dict, st: dict, scale: float) -> None:
    """Accumulate counters; keys ending in ``_max`` are maxima, not sums."""
    for key, val in st.items():
        if key.endswith("_max"):
            dst[key] = max(dst.get(key, 0.0), val)
        else:
            dst[key] = dst.get(key, 0.0) + val * scale


def merge(recorders: list[Recorder]) -> dict[str, dict[str, dict[str, float]]]:
    """Mean per traced pass of every counter: ``{graph: {layer: {key: v}}}``."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for rec in recorders:
        for graph, layers in rec.layers.items():
            g = out.setdefault(graph, {})
            for layer, st in layers.items():
                _add(g.setdefault(layer, {}), st, 1 / len(recorders))
    return out


def totals(per_graph: dict) -> defaultdict:
    """Workload totals of a ``merge`` result: ``{layer: {key: value}}``;
    a layer or key that was never recorded reads as 0."""
    out: defaultdict = defaultdict(lambda: defaultdict(float))
    for layers in per_graph.values():
        for layer, st in layers.items():
            _add(out[layer], st, 1.0)
    return out


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was recorded."""
    return num / den if den else 0.0
