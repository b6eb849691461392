"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces module attributes that alphagate looks up at call
time with wrappers that record a span per call (name, start, end, parent
span, operation id) plus counts taken from the call's arguments and result.
Spans stay in memory until the benchmark writes them out. Wrappers are
installed only for the duration of one traced operation, and the parent of
a span is taken from a stack, so a traced operation must run on a single
thread (the traced simulator run uses ``threads=1``).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one operation; every span opened inside shares ``op_id``."""
        self._op = op_id
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a recording wrapper until :meth:`restore`.

        ``count(args, kwargs, result)`` returns the counts stored on the span.
        """
        original = getattr(module, attr)
        self._saved.append((module, attr, original))

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``targets`` — (module, attr, name, count) — and
        restore the original attributes on exit."""
        try:
            for module, attr, name, count in targets:
                self.wrap(module, attr, name, count)
            yield self
        finally:
            self.restore()

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return {span.id: (span.end - span.start) - child_time[span.id] for span in spans}


def per_op(spans: list[Span]) -> dict[int, dict]:
    """Operation id -> {"wall": root duration, "self": {name: seconds},
    "counts": {key: total}}."""
    own = self_times(spans)
    ops: dict[int, dict] = {}
    for span in spans:
        entry = ops.setdefault(span.op, {"wall": 0.0, "self": defaultdict(float), "counts": defaultdict(int)})
        if span.parent is None:
            entry["wall"] = span.end - span.start
        entry["self"][span.name] += own[span.id]
        for key, value in span.counts.items():
            entry["counts"][key] += value
    return ops
