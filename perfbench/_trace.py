"""In-memory span tracing from outside the program, plus the statistics helpers.

The benchmark wraps module-level names of ``mlbl`` where their callers look
them up (``mlbl._kernels.classed_fwd_bwd``, ``mlbl.cli.brown_cluster``, ...).
Each call of a wrapped name records one span: name, start, end and the index
of the enclosing span. Spans stay in memory until the run writes them out.
A name that no longer exists is recorded as absent with a reason, so a later
refactor removes a metric instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``wrap`` patches a dotted name to record them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.results: dict[str, list] = defaultdict(list)
        self.wrapped: set[str] = set()
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._self_times: list[float] | None = None

    def span(self, name: str):
        return _SpanContext(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def wrap(self, target: str, name: str, timed: bool = True,
             keep_result: bool = False) -> bool:
        """Replace ``target`` (``pkg.module.attr`` or ``pkg.module.Class.attr``).

        With ``timed`` False the wrapper only counts calls (and keeps results
        when asked) and records no span, so it costs nothing measurable.
        Returns False and records the reason under ``target`` when the name
        is missing.
        """
        try:
            owner, attr = _resolve_owner(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError) as exc:
            self.absent[target] = f"not found ({type(exc).__name__}: {exc})"
            return False
        if not callable(original):
            self.absent[target] = f"is a {type(original).__name__}, not a function"
            return False
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if timed:
                index = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
            else:
                result = original(*args, **kwargs)
            tracer.results[name].append(result if keep_result else None)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self.wrapped.add(name)
        return True

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return len(self.results.get(name, ()))

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Inclusive seconds under ``name``, counting a span nested in a
        span of the same name only once."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name == name and not self._has_ancestor(i, name):
                total += s.seconds
        return total

    def self_total(self, name: str) -> float:
        if self._self_times is None or len(self._self_times) != len(self.spans):
            self._self_times = self_times(self.spans)
        return sum(t for s, t in zip(self.spans, self._self_times) if s.name == name)

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


def _resolve_owner(target: str):
    """Import the longest module prefix of ``target``; walk the rest as attributes."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(f"no importable module in {target!r}")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.seconds - covered)
    return out


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values: list[float], min_beyond: int = 10):
    """Highest of TAIL_PERCENTILES with at least ``min_beyond`` samples above it.

    Returns (percentile, value, sample_count), or None when even the median
    has fewer than ``min_beyond`` samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        index = max(0, math.ceil(pct / 100.0 * n) - 1)
        if n - index - 1 >= min_beyond:
            return pct, ordered[index], n
    return None


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
