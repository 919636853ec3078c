"""Layer spans recorded from outside the package.

A traced pass swaps the engine's collaborators (rounding, density tracker,
event sink) and the rounding's application listeners for facades, and wraps
a few public methods on the instances (``engine.move_bucket``,
``DensityEstimator.report``, ``DensityTracker.count_at_least``).  Every call
across one of those boundaries opens a span; the package itself is not
modified.  Spans are aggregated in memory by (root op kind, span name), so a
traced pass of any length stays small.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Span totals keyed by (root, name).

    The root is the name of the outermost open span: ``update``, ``query``
    or ``audit``.  A span's self time is its duration minus the durations of
    the spans opened directly inside it.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self._open: list[list] = []     # per open span: [child_ns]
        self._root = ""

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span called ``name``."""
        stack = self._open
        if not stack:
            self._root = name
        frame = [0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            dur = time.perf_counter_ns() - start
            stack.pop()
            key = (self._root, name)
            self.calls[key] += 1
            self.total_ns[key] += dur
            self.self_ns[key] += dur - frame[0]
            if stack:
                stack[-1][0] += dur

    def layer(self, root: str, prefix: str) -> tuple[int, int, int]:
        """(calls, total ns, self ns) summed over spans named ``prefix`` or
        ``prefix.*`` under ``root``."""
        calls = total = own = 0
        for key, n in self.calls.items():
            r, name = key
            if r == root and (name == prefix or name.startswith(prefix + ".")):
                calls += n
                total += self.total_ns[key]
                own += self.self_ns[key]
        return calls, total, own


def _traced(tracer: Tracer, name: str, fn):
    def call(*args):
        return tracer.span(name, fn, *args)
    return call


class _Facade:
    """Stands in for one collaborator, tracing the named methods only."""

    def __init__(self, tracer: Tracer, layer: str, target, methods):
        for m in methods:
            setattr(self, m, _traced(tracer, f"{layer}.{m}",
                                     getattr(target, m)))


APP_NAMES = ("matching", "coloring", "forests", "matvec")
_LISTENER_HOOKS = ("on_insert", "on_delete", "on_flip", "on_degree")


def install(tracer: Tracer, stack) -> None:
    """Route every layer boundary of a freshly built stack through spans."""
    engine = stack.engine
    rounding = stack.rounding
    tracker = stack.tracker
    names = {id(getattr(stack, a)): a for a in APP_NAMES
             if getattr(stack, a) is not None}
    rounding.listeners[:] = [
        _Facade(tracer, f"applications.{names[id(ls)]}", ls, _LISTENER_HOOKS)
        for ls in rounding.listeners]
    engine.rounding = _Facade(
        tracer, "rounding", rounding,
        ("counts_changed", "simple_inserted", "simple_deleted"))
    engine.degree_listener = _Facade(tracer, "density", tracker,
                                     ("degree_changed",))
    if engine.recorder is not None:
        engine.recorder = _Facade(tracer, "events", engine.recorder, ("emit",))
    engine.move_bucket = _traced(tracer, "state.move_bucket",
                                 engine.move_bucket)
    stack.density.report = _traced(tracer, "density.report",
                                   stack.density.report)
    tracker.count_at_least = _traced(tracer, "density.count_at_least",
                                     tracker.count_at_least)
