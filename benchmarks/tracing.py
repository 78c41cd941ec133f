"""Span tracer that wraps arbsurf's public functions from outside the package.

`Tracer.install` replaces every public function of the traced layer modules
by a wrapper that records one span per call: name, start, end, parent span
and run id. The wrapper is placed on every arbsurf module attribute that
holds the function, so a function imported by name into another module
(`training` imports `spec_guard_project` from `qalign`) is traced at its
real call site. Spans stay in memory; `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("generator", "decoder", "grids", "training", "qalign", "operator",
          "vix", "metrics", "runlog", "cli")


@dataclass(frozen=True)
class Span:
    name: str
    start: int  # time.perf_counter_ns()
    end: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    run_id: str
    error: str | None = None  # exception type name if the call raised


class Tracer:
    """Collects spans while installed. `observers` maps a span name to a
    callback `(tracer, args, kwargs, result)` run after a successful call,
    for counters that need the call's arguments or result. Use as a context
    manager: entering installs the wrappers, leaving removes them."""

    def __init__(self, run_id: str, observers: dict | None = None,
                 package: str = "arbsurf", layers=LAYERS):
        self.run_id = run_id
        self.package, self.layers = package, layers
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self._stack: list = []
        self._observers = observers or {}
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        run_id = self.run_id
        observer = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                error = type(err).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, run_id, error)
            if observer is not None:
                observer(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        package = self.package
        wrappers = {}
        for layer in self.layers:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue  # re-exported; wrapped where it is defined
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, obj))
        return self

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _union_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans) -> list:
    """Per span: its duration minus the union of its child spans' intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _union_ns(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


@dataclass
class FnStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


def aggregate(spans) -> dict:
    """Per span name: calls, total and self seconds, raised calls."""
    out: dict = defaultdict(FnStats)
    for span, self_ns in zip(spans, self_times_ns(spans)):
        st = out[span.name]
        st.calls += 1
        st.total_s += (span.end - span.start) * 1e-9
        st.self_s += self_ns * 1e-9
        st.errors += span.error is not None
    return dict(out)


def child_calls(spans, child: str, parent: str) -> int:
    """Calls of `child` whose direct parent span is a `parent` call."""
    return sum(1 for s in spans
               if s.name == child and s.parent >= 0 and spans[s.parent].name == parent)
