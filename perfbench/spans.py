"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name (``layer.function``), start and end (``perf_counter``
seconds), the id of the span that encloses it and the id of the trace it
belongs to (one trace per benchmark operation).  Spans stay in memory and
are written as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass

LAYERS = ("ingest", "estimate", "forkrate", "quadrature", "simulate", "cli")


@dataclass
class Span:
    id: int
    name: str
    trace: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``trace()`` opens a new trace, ``span()`` a nested span."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace = 0

    @contextlib.contextmanager
    def trace(self, name: str):
        self._trace += 1
        with self.span(name) as s:
            yield s

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, self._trace, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span prefix (layer, or ``op``/``probe``).

        A span's self time is its duration minus the time its direct
        children cover; children never overlap because spans nest.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - covered
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    enabled = False
    _null = contextlib.nullcontext()

    def trace(self, name: str):
        return self._null

    def span(self, name: str):
        return self._null
