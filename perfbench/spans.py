"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent, op).  Its layer is the part of the
name before the first dot.  An "op" span covers a whole op; its self time
is the harness's own work, mostly checking the op's outputs.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans in memory; `spans` is written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def op(self, name: str):
        self._op += 1
        with self.span(f"op.{name}"):
            yield

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps parent indices stable
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op)


class NullTracer:
    """Tracing off: every span is the same empty context."""

    _empty = nullcontext()

    def op(self, name: str):
        return self._empty

    def span(self, name: str):
        return self._empty


def totals_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed duration per span name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
    return dict(out)


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    """A layer's self time: its spans' durations minus what their child
    spans cover.  Op spans count as the "harness" layer."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        layer = "harness" if s.layer == "op" else s.layer
        out[layer] += (s.end - s.start) - covered[i]
    return dict(out)


def to_records(spans: list[Span]) -> list[dict]:
    return [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "op": s.op,
        }
        for s in spans
    ]
