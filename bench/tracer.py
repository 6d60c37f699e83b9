"""Spans around each layer's public functions, kept in memory.

A span is (name, start, end, parent index).  Functions are wrapped where the
*calling* module binds them, so the package itself is not edited and calls
inside a layer are not split up.  A layer is the part of a span name before
the first dot; its self time is the time its spans cover minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: (module, name bound there, span name, index of the argument whose size is
#: counted as points, or None)
PATCHES = (
    ("econlife.cli", "economic_life", "classifier.economic_life", None),
    ("econlife.cli", "check_against_search", "oracle.check_against_search", None),
    ("econlife.classifier", "w0", "lambert_w.w0", None),
    ("econlife.classifier", "expm1_minus", "numerics.expm1_minus", 0),
    ("econlife.cost_model", "expm1_minus", "numerics.expm1_minus", 0),
    ("econlife.oracle", "property_cost", "cost_model.property_cost", 1),
    ("econlife.oracle", "brute_force_minimize", "oracle.brute_force_minimize", None),
)

LAYERS = ("cli", "classifier", "lambert_w", "numerics", "cost_model", "oracle")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.points: Counter = Counter()
        self.unbound: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, points_arg: int | None = None):
        spans, stack, calls, points = self.spans, self._stack, self.calls, self.points
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            calls[name] += 1
            if points_arg is not None:
                points[name] += int(np.size(args[points_arg]))
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in PATCHES for the duration of the block.

        A name the package no longer binds is listed in ``unbound`` and its
        counts stay 0.
        """
        saved = []
        try:
            for module_name, attr, name, points_arg in PATCHES:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.unbound.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, points_arg))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, in seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, covered):
            layers[name.split(".", 1)[0]] += end - start - children
        return {layer: layers.get(layer, 0.0) for layer in LAYERS}
