"""Tracing from outside the library: wrappers installed at module attributes.

Call-level boundaries (an identify verdict, a fit, an experiment, a CLI call)
become spans with an id, a parent id and the id of the unit call that caused
them.  Per-iteration boundaries (engine passes, optimizer steps,
factorizations, parameter conversions) are only aggregated as count, total
time and self time, so memory stays flat however many iterations run; each
open span also keeps the self time of the aggregated calls made inside it,
which is what lets the self times of one fit be summed against its duration.

A layer's self time is its duration minus the time of the wrapped calls made
inside it.  Nothing in the library is edited: the wrappers replace module
attributes, which is where the library's own code looks the names up, and
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time


class Span:
    __slots__ = ("id", "parent", "unit", "layer", "start", "end", "self_s", "by_layer", "info")

    def __init__(self, span_id, parent, unit, layer):
        self.id = span_id
        self.parent = parent
        self.unit = unit
        self.layer = layer
        self.start = self.end = self.self_s = 0.0
        self.by_layer = {}  # layer -> [calls, self seconds] of aggregated calls inside
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.stack = []  # one [child seconds] frame per active wrapped call
        self.open_spans = []
        self.spans = []
        self.agg = {}  # layer -> [calls, total seconds, self seconds]
        self.unit = None  # (id, label) of the unit call in progress
        self._ids = itertools.count()
        self.missing = []  # "module.attr" names that could not be wrapped
        self._patches = []

    # --- installing -----------------------------------------------------------

    def wrap(self, target: str, layer: str, span: bool = False, post=None) -> bool:
        """Wrap ``module.attr`` (or ``module.Class.method``); False if it is absent."""
        module_name, _, attr = target.rpartition(".")
        owner_name, _, cls_name = module_name.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            # ``module.Class.method``: the owner is a class inside a module
            try:
                owner = getattr(importlib.import_module(owner_name), cls_name)
            except (ImportError, AttributeError):
                self.missing.append(target)
                return False
        raw = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr)
        if raw is None:
            self.missing.append(target)
            return False
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        make = self._span_wrapper if span else self._agg_wrapper
        wrapper = make(fn, layer, post)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))
        return True

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _agg_wrapper(self, fn, layer, post):
        stack = self.stack
        open_spans = self.open_spans
        totals = self.agg.setdefault(layer, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[0]
                totals[0] += 1
                totals[1] += dur
                totals[2] += own
                if stack:
                    stack[-1][0] += dur
                if open_spans:
                    cell = open_spans[-1].by_layer.get(layer)
                    if cell is None:
                        cell = open_spans[-1].by_layer[layer] = [0, 0.0]
                    cell[0] += 1
                    cell[1] += own
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _span_wrapper(self, fn, layer, post):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer) as span:
                result = fn(*args, **kwargs)
            if post is not None:
                post(span, args, result)
            return result

        return wrapper

    # --- spans ------------------------------------------------------------------

    def span(self, layer: str):
        return _SpanContext(self, layer)

    def begin_unit(self, unit_id: int, label: str) -> None:
        self.unit = (unit_id, label)

    def end_unit(self) -> None:
        self.unit = None

    def spans_of(self, layer: str) -> list[Span]:
        return [s for s in self.spans if s.layer == layer]


class _SpanContext:
    __slots__ = ("tracer", "layer", "span", "frame")

    def __init__(self, tracer: Tracer, layer: str):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self) -> Span:
        tr = self.tracer
        parent = tr.open_spans[-1].id if tr.open_spans else None
        self.span = Span(next(tr._ids), parent, tr.unit, self.layer)
        self.frame = [0.0]
        tr.stack.append(self.frame)
        tr.open_spans.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        span = self.span
        span.end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.open_spans.pop()
        dur = span.duration
        span.self_s = dur - self.frame[0]
        totals = tr.agg.setdefault(self.layer, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += dur
        totals[2] += span.self_s
        if tr.stack:
            tr.stack[-1][0] += dur
        tr.spans.append(span)
        return False
