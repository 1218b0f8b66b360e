"""In-memory spans around the benchmark's calls into the package.

A span is (name, start, end, parent index); all spans of one pass share the
tracer's run id.  Nothing is written while a pass runs: the spans travel
back to run.py with the pass result and are written when the run ends.
With tracing off, span() returns a shared no-op context manager.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()


class Tracer:
    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self._pending = ""

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        self._pending = name
        return self

    def __enter__(self) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._pending, perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def __exit__(self, *exc) -> bool:
        self.spans[self._stack.pop()][2] = perf_counter()
        return False

    def self_times(self, duration) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time in seconds and the number of spans.

        Self time is a span's duration(start, end) minus the durations of its
        direct children; spans of one pass never overlap except by nesting.
        """
        lengths = [duration(start, end) for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent), length in zip(self.spans, lengths):
            if parent is not None:
                child_time[parent] += length
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, *_), length, children in zip(self.spans, lengths, child_time):
            seconds[name] += length - children
            calls[name] += 1
        return dict(seconds), dict(calls)

    def records(self) -> list[dict]:
        return [{"run": self.run_id, "name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
