"""In-memory spans and counters recorded around calls into the program.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
span that was open when this one began, or -1.  Spans live in memory
while the workload runs and are written out once it ends, as Chrome
trace-event JSON (``chrome://tracing`` or Perfetto open it).  Nothing
here reads or changes program state; wrappers only observe the calls
they forward.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from typing import Any, Callable, Iterable


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self.counters: Counter[str] = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._open.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span given its times (for hand-built traces)."""
        index = self.begin(name)
        self._open.pop()
        self.start[index], self.end[index] = start, end
        self.parent[index] = parent
        return index

    def spans(self, name: str) -> list[int]:
        name_id = self._name_ids.get(name)
        return [i for i, n in enumerate(self.name_of) if n == name_id]

    def name(self, index: int) -> str:
        return self.names[self.name_of[index]]

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Spans come from one thread, so children nest inside their parent and
    do not overlap one another: the covered part is the sum of the
    direct children's durations.
    """
    own = [tracer.end[i] - tracer.start[i] for i in range(len(tracer))]
    for i in range(len(tracer)):
        parent = tracer.parent[i]
        if parent >= 0:
            own[parent] -= tracer.end[i] - tracer.start[i]
    return own


def _is_outermost(tracer: Tracer, index: int) -> bool:
    name_id = tracer.name_of[index]
    parent = tracer.parent[index]
    while parent >= 0:
        if tracer.name_of[parent] == name_id:
            return False
        parent = tracer.parent[parent]
    return True


def outermost(tracer: Tracer, name: str) -> list[int]:
    """Spans of ``name`` not nested in another span of the same name.

    A subclass override that calls ``super()`` yields nested spans of
    one layer; counting only the outermost keeps calls and time honest.
    """
    return [i for i in tracer.spans(name) if _is_outermost(tracer, i)]


def layer_table(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """(name, calls, total s, self s) per span name, by self time."""
    calls = [0] * len(tracer.names)
    total = [0.0] * len(tracer.names)
    self_s = [0.0] * len(tracer.names)
    for index, own in enumerate(self_times(tracer)):
        name_id = tracer.name_of[index]
        self_s[name_id] += own
        if _is_outermost(tracer, index):
            calls[name_id] += 1
            total[name_id] += tracer.duration(index)
    rows = [
        (name, calls[i], total[i], self_s[i])
        for i, name in enumerate(tracer.names)
    ]
    return sorted(rows, key=lambda row: -row[3])


def format_layer_table(rows: Iterable[tuple[str, int, float, float]]) -> str:
    lines = [f"{'span':<34} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    for name, calls, total, own in rows:
        lines.append(f"{name:<34} {calls:>9} {total:>10.4f} {own:>10.4f}")
    return "\n".join(lines)


def write_chrome_trace(
    tracer: Tracer, path: str, limit: int = 200_000, pid: int = 1
) -> int:
    """Write up to ``limit`` spans as Chrome trace-event JSON; returns count."""
    if len(tracer) == 0:
        origin = 0.0
    else:
        origin = min(tracer.start[i] for i in range(min(limit, len(tracer))))
    events: list[dict[str, Any]] = []
    for index in range(min(limit, len(tracer))):
        events.append(
            {
                "name": tracer.name(index),
                "ph": "X",
                "pid": pid,
                "tid": 1,
                "ts": round((tracer.start[index] - origin) * 1e6, 3),
                "dur": round(tracer.duration(index) * 1e6, 3),
                "args": {"span": index, "parent": tracer.parent[index]},
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)


def spanned(tracer: Tracer, name: str, fn: Callable, after=None) -> Callable:
    """``fn`` wrapped in a span; ``after(result, args, span)`` observes it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(index)
        if after is not None:
            after(result, args, index)
        return result

    return wrapper


def counted(fn: Callable, after: Callable) -> Callable:
    """``fn`` with ``after(result, args)`` run on every return."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args)
        return result

    return wrapper
