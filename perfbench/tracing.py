"""Spans recorded around calls into matchstat, kept in memory, and their self time.

A span has a name (``<layer>.<public function>``), start and end times
from ``time.perf_counter``, the index of the span that was open when it
started, the id of the job it belongs to, and the job's size class.
Nothing here imports matchstat, so the orchestrator can aggregate spans
without loading the library under test.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    cls: str | None
    ok: bool = True

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records one span per call; the spans are written out by the caller."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job = -1
        self.cls: str | None = None

    def _begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        span = Span(name, 0.0, 0.0, parent, self.job, self.cls)
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _finish(self, span: Span) -> None:
        span.end = perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self._begin(name)
        try:
            return fn(*args, **kwargs)
        except Exception:
            span.ok = False
            raise
        finally:
            self._finish(span)

    @contextmanager
    def span(self, name: str):
        span = self._begin(name)
        try:
            yield span
        except Exception:
            span.ok = False
            raise
        finally:
            self._finish(span)

    def innermost_failure(self) -> str | None:
        """Layer of the current job's innermost failed span.

        Children are appended after their parent, so scanning backwards
        meets the innermost failed span first.
        """
        for span in reversed(self.spans):
            if span.job != self.job:
                break
            if not span.ok:
                return span.layer
        return None


class NullTracer:
    """The untraced path: calls go straight through and nothing is kept."""

    job = -1
    cls: str | None = None

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name: str):
        return nullcontext()

    def innermost_failure(self) -> None:
        return None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for a, b in sorted(children[idx]):
            a, b = max(a, reach), min(b, span.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(span.end - span.start - covered)
    return out
