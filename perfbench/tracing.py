"""Span tracing of lambdaloop's public functions from outside the package.

Each traced function is replaced, at every module attribute that binds
it, by one wrapper that times the call and charges its duration to the
enclosing traced call.  Spans are aggregated as they close rather than
stored: a pass of the `sweep` workload makes about 100,000 of them.
Self time is a span's duration minus the time of its traced children.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0


class Tracer:
    """Installs timing wrappers and accumulates per-name span statistics."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        # (parent span name or None, child span name) -> calls.
        self.edges: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, units):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        edges = self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if units is not None:
                    stats.units += units(*args, **kwargs)
                if parent is not None:
                    parent[1] += elapsed
                edges[parent[0] if parent else None, name] += 1

        return traced

    def install(self, package: str, targets) -> None:
        """Wrap each target wherever a module of `package` binds it.

        targets: (span name, owner, attribute, units) tuples, where owner
        is a module or class and units, if given, maps the call arguments
        to a count of work items.  A module attribute is wrapped when it
        is the same object as owner.attribute, so names imported by name
        into other modules are traced as well.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None
                   and (key == package or key.startswith(package + "."))]
        for name, owner, attr, units in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, units)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
