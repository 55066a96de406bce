"""In-memory spans around the benchmark's calls into symsq.

A span is recorded for each call the benchmark makes through a wrapped
function: its name (``<layer>.<function>``), its parent span, its start
and its end.  Spans are kept in a list and summarized when the traced
run ends.  Nothing inside ``src/`` is wrapped; the only module attributes replaced are those a workload lists
in ``patched``, and only while ``Tracer.patch`` is active.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median
from time import perf_counter

LAYERS = ("numerics", "states", "invariants", "covariance", "collective",
          "models", "oracle", "cli")


@dataclass(frozen=True)
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 for a root span
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []  # (span index, layer) of each open span
        self.warnings_by_layer = dict.fromkeys(LAYERS, 0)

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        if layer not in LAYERS:
            raise ValueError(f"span name {name!r} names no symsq layer")
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, layer))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = Span(name, parent, t0, t1)

        return traced

    def on_warning(self, message, category, filename, lineno, file=None, line=None):
        """``warnings.showwarning`` hook: count each RuntimeWarning once per open layer."""
        if issubclass(category, RuntimeWarning):
            for layer in {layer for _, layer in self._stack}:
                self.warnings_by_layer[layer] += 1

    @contextmanager
    def patch(self, module, attr: str, name: str):
        """Route calls made through ``module.attr`` via a span, then restore it."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original))
        try:
            yield
        finally:
            setattr(module, attr, original)


def self_times(spans) -> list:
    """Per-span self time: duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never goes below zero.
    """
    children: dict = {}
    for idx, sp in enumerate(spans):
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(idx)
    out = []
    for idx, sp in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k].start):
            lo = max(spans[c].start, sp.start)
            hi = min(spans[c].end, sp.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(sp.duration - covered)
    return out


def layer_self_shares(spans) -> dict:
    """Share of all self time spent in each layer (sums to 1 over LAYERS)."""
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for sp, own in zip(spans, self_times(spans)):
        per_layer[sp.layer] += own
    total = sum(per_layer.values())
    return {k: (v / total if total > 0 else 0.0) for k, v in per_layer.items()}


def per_function(spans) -> dict:
    """name -> (call count, median duration in seconds)."""
    durations: dict = {}
    for sp in spans:
        durations.setdefault(sp.name, []).append(sp.duration)
    return {name: (len(d), median(d)) for name, d in durations.items()}
