"""Span tracing by wrapping functions from outside the package.

A `Tracer` replaces attributes (module functions, class methods) with
wrappers that time each call and keep a stack of open spans, so each name
accumulates call count, inclusive time and self time (inclusive time minus
the time covered by its child spans).  Calls are aggregated as they finish
rather than kept as individual spans: the exhaustive workload makes ~10^5
kernel calls per invocation.

Wrap a name in the namespace where it is *looked up*: `pinchsim.harness`
does `from .activation import matching_activation`, so the attribute to
replace is `pinchsim.harness.matching_activation`.  `restore()` puts every
original back, in reverse order.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

_ABSENT = object()


class Stat:
    """Aggregate of one span name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


def resolve(path: str):
    """Import `a.b.c` as a module, or as attribute `c` of module `a.b`, and
    so on leftwards.  Raises LookupError when no split resolves."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                obj = getattr(obj, name)
        except AttributeError:
            break
        return obj
    raise LookupError(path)


class Tracer:
    """Times wrapped calls; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = defaultdict(Stat)
        # (parent span name, child span name) -> calls; parent None at top.
        self.edges: dict[tuple[str | None, str], int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop the aggregates (not the wrappers)."""
        self.stats.clear()
        self.edges.clear()

    def traced(self, name: str, fn, on_return=None):
        """`fn` wrapped so each call is a span called `name`.

        `on_return(args, kwargs, result)` runs after a call that returned,
        outside the span's timing.
        """
        stack = self._stack
        clock = self.clock
        stats = self.stats
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat = stats[name]
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                edges[(parent[1] if parent is not None else None, name)] += 1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner_path: str, attr: str, name: str,
             on_return=None) -> bool:
        """Replace `owner.attr` by a traced wrapper; False (and `name` noted
        in `missing`) when the owner or attribute no longer exists."""
        try:
            owner = resolve(owner_path)
        except LookupError:
            owner = None
        original = getattr(owner, attr, _ABSENT) if owner is not None else _ABSENT
        if original is _ABSENT or not callable(original):
            self.missing.append(name)
            return False
        # A class attribute found by inheritance is deleted again on restore.
        own = owner.__dict__.get(attr, _ABSENT) if isinstance(owner, type) else original
        setattr(owner, attr, self.traced(name, original, on_return))
        self._patches.append((owner, attr, own))
        return True

    def restore(self) -> None:
        """Put back every original replaced by `wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
