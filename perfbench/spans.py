"""In-memory spans and counts recorded around calls into the library.

A span is (id, name, start, end, parent id, pass id).  Spans and counts
are kept in lists and dicts while the benchmark runs and written out
only at the end, so tracing does no I/O inside a timed pass.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records spans and counts; `call` wraps one library call in a span."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.counts: dict[tuple[str, str], float] = {}
        self.pass_id = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, 0.0, 0.0, parent, self.pass_id))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.pass_id)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: float = 1) -> None:
        key = (self.pass_id, name)
        self.counts[key] = self.counts.get(key, 0) + n


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: float = 1) -> None:
        pass


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and their union is
    taken, so overlapping or out-of-range children are not subtracted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _pass in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _pass in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def layer_of(name: str) -> str:
    """Module prefix of a call span (`radon.primitive` -> `radon`); spans
    the benchmark opens itself (passes, cases) belong to `bench`."""
    head, _, rest = name.partition(".")
    return head if rest else "bench"
