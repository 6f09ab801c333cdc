"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark around each call it makes into the
package; nothing inside ``src/`` is instrumented. Each span keeps its
name, start, end, parent and the id of the unit of work it belongs to.
Spans stay in memory until the run ends, then are written as JSON and
reduced to per-layer self times and counts.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one method call and record nothing."""

    enabled = False

    def span(self, name: str, unit: str | None = None):
        return _NULL

    def count(self, name: str, value: int) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "unit", "index")

    def __init__(self, tracer: "Tracer", name: str, unit: str | None):
        self.tracer = tracer
        self.name = name
        self.unit = unit

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        unit = self.unit
        if unit is None and parent >= 0:
            unit = tr.spans[parent][5]
        self.index = len(tr.spans)
        tr.spans.append([self.index, self.name, time.perf_counter(), 0.0, parent, unit])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][3] = time.perf_counter()
        tr._stack.pop()
        return False


class Tracer:
    """Tracing on: records ``[id, name, start, end, parent, unit]`` per span.

    A span's unit is inherited from its parent unless given, so every
    call made while handling one unit shares that unit's id.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str, unit: str | None = None) -> _Span:
        return _Span(self, name, unit)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "name", "start", "end", "parent", "unit"]
        payload = {
            "fields": fields,
            "spans": self.spans,
            "counts": self.counts,
        }
        path.write_text(json.dumps(payload))
