"""In-memory span recorder for the traced run, and self-time arithmetic.

Stdlib only, so the traced process can start recording before numpy is
imported and the import itself is a span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    run_id: str


class Recorder:
    """Keeps spans in memory; ``write`` saves them once the run has ended."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run_id))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def write(self, path, values: dict) -> None:
        body = {"spans": [asdict(s) for s in self.spans], "values": values}
        with open(path, "w") as fh:
            json.dump(body, fh)


def load(path) -> tuple[list[Span], dict]:
    with open(path) as fh:
        body = json.load(fh)
    return [Span(**s) for s in body["spans"]], body["values"]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def top_level(spans: list[Span], root: str) -> list[Span]:
    """Children of the root spans named ``root``: the steps of a run."""
    roots = {i for i, s in enumerate(spans) if s.parent is None and s.name == root}
    return [s for s in spans if s.parent in roots]
