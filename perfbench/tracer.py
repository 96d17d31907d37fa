"""In-memory span tracer for the benchmark's traced run.

A span is opened when a wrapped function is entered and closed when it
returns or raises.  Spans are not stored one by one: hot functions are
called ~10^5 times per pass, so each span is folded into a node of the
call tree, keyed by (parent node, name).  A node keeps its call count,
its total duration and its self time, which is the duration minus the
time covered by its child spans.  Everything runs in one thread, so
child spans never overlap and their coverage is the sum of their
durations.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time
from typing import Any, Callable, Iterable, Iterator

ROOT = 0  # node id of the implicit root span


class Tracer:
    """Call-tree aggregate of spans plus free-form counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_durations: Iterable[str] = ()) -> None:
        self._clock = clock
        self._keep = frozenset(keep_durations)
        # per-call durations of the names asked for, kept across resets
        self.durations: dict[str, list[float]] = {name: [] for name in self._keep}
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter; per-call durations are kept."""
        self._node_of: dict[tuple[int, str], int] = {}
        self.names: list[str] = ["<root>"]
        self.parents: list[int] = [-1]
        self.calls: list[int] = [0]
        self.total: list[float] = [0.0]
        self.self_time: list[float] = [0.0]
        self.counters: collections.Counter[str] = collections.Counter()
        # open spans: [node, start, time covered by closed children]
        self._stack: list[list] = [[ROOT, 0.0, 0.0]]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0]
        node = self._node_of.get((parent, name))
        if node is None:
            node = len(self.names)
            self._node_of[(parent, name)] = node
            self.names.append(name)
            self.parents.append(parent)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        self._stack.append([node, self._clock(), 0.0])

    def exit(self) -> None:
        end = self._clock()
        node, start, covered = self._stack.pop()
        duration = end - start
        self.calls[node] += 1
        self.total[node] += duration
        self.self_time[node] += duration - covered
        self._stack[-1][2] += duration
        name = self.names[node]
        if name in self._keep:
            self.durations[name].append(duration)

    @property
    def current(self) -> str | None:
        """Name of the innermost open span, or None outside every span."""
        node = self._stack[-1][0]
        return None if node == ROOT else self.names[node]

    def ancestors(self, node: int) -> Iterator[str]:
        """Names of the spans enclosing a node, innermost first."""
        node = self.parents[node]
        while node > ROOT:
            yield self.names[node]
            node = self.parents[node]

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """(calls, total duration, self time) summed over every call path."""
        out: dict[str, list] = {}
        for node in range(1, len(self.names)):
            agg = out.setdefault(self.names[node], [0, 0.0, 0.0])
            agg[0] += self.calls[node]
            agg[1] += self.total[node]
            agg[2] += self.self_time[node]
        return {name: (c, t, s) for name, (c, t, s) in out.items()}


Hook = Callable[[Tracer, tuple, dict, Any], None]


def traced(tracer: Tracer, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
    """Wrap fn in a span named name.

    The hook, if any, runs after the span is closed, with the call's
    arguments and result, and feeds the tracer's counters.
    """
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, targets: Iterable) -> Iterator[Tracer]:
    """Replace each target's module attribute by its traced version, and
    put every original object back on exit, also when the body raises.

    A target has ``owner``, ``attr`` and ``wrap(tracer, original)``.
    """
    saved = []
    try:
        for target in targets:
            original = getattr(target.owner, target.attr)
            saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, target.wrap(tracer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
