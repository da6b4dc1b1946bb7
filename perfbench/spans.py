"""In-memory spans and counters recorded around the benchmark's calls into traceform.

A span has a name, wall start and end, process-CPU start and end, the id of
the span that encloses it, and the id of the operation it belongs to.  Spans
stay in memory and are written once, when the run ends.  A disabled tracer
records nothing and hands out one shared no-op span, so the untraced run pays
only a method call per span.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "span_id", "parent", "op", "start", "end",
                 "cpu_start", "cpu_end")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.span_id = len(tr.spans)
        self.parent = tr.stack[-1].span_id if tr.stack else None
        self.op = tr.op
        tr.spans.append(self)
        tr.stack.append(self)
        self.cpu_start = time.process_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.cpu_end = time.process_time()
        self.tracer.stack.pop()
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def cpu_seconds(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    """Span and counter recorder; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.counts: list[tuple[str, str, float]] = []  # (op, name, value)
        self.op = "setup"

    def begin_op(self, op: str) -> None:
        self.op = op

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((self.op, name, float(value)))

    def per_op(self) -> dict[str, dict[str, float]]:
        """Per operation: self seconds per span name (as ``<name>_s``), plus the counters.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap, since one caller runs one call at a time.
        """
        child_time: dict[int, float] = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.seconds
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sp in self.spans:
            out[sp.op][sp.name + "_s"] += sp.seconds - child_time[sp.span_id]
        for op, name, value in self.counts:
            out[op][name] += value
        return out

    def medians(self) -> dict[str, float]:
        """Median over operations of each name's per-operation total."""
        values: dict[str, list[float]] = defaultdict(list)
        for totals in self.per_op().values():
            for name, value in totals.items():
                values[name].append(value)
        return {name: statistics.median(vs) for name, vs in values.items()}

    def write(self, path: Path) -> None:
        rows = [
            {"id": sp.span_id, "parent": sp.parent, "op": sp.op, "name": sp.name,
             "start": sp.start, "end": sp.end, "cpu_start": sp.cpu_start, "cpu_end": sp.cpu_end}
            for sp in self.spans
        ]
        counts = [{"op": op, "name": name, "value": value} for op, name, value in self.counts]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counts": counts}) + "\n")
