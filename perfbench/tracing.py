"""Span tracing from outside the program.

The tracer replaces module and class attributes of ``longattn`` with timing
wrappers (the way ``tests/conftest.py`` swaps ``relu``) and puts the
originals back when the block ends. Nothing under ``src/`` changes, and an
untraced run executes the original functions with no wrapper at all.

A span is ``[id, name, tag, start_ns, end_ns, parent_id, op_id]``. Spans stay
in memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from typing import Iterable, Iterator

Target = tuple[object, str, str]  # (module or class, attribute, span name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tag = ""  # label copied into each new span, e.g. the variant
        self.op_id: int | None = None  # the step or utterance the spans belong to
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else None
        span = [len(self.spans), name, self.tag, 0, 0, parent, self.op_id]
        self.spans.append(span)
        self._open.append(span[0])
        span[3] = time.perf_counter_ns()
        return span

    def _end(self, span: list) -> None:
        span[4] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = self._begin(name)
        try:
            yield
        finally:
            self._end(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span)

        return traced

    @contextmanager
    def patched(self, targets: Iterable[Target]) -> Iterator[None]:
        """Wrap every target in a span for the duration of the block."""
        with patch_attributes((owner, attr, self._wrap(name, getattr(owner, attr)))
                              for owner, attr, name in targets):
            yield


@contextmanager
def patch_attributes(replacements: Iterable[tuple[object, str, object]]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each triple; restore the originals on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def call_peaks(targets: Iterable[tuple[object, str]], peaks: list[int]) -> Iterator[None]:
    """Append to ``peaks``, for each call of a target, the tracemalloc peak in
    bytes above the traced size at call entry. Starts and stops tracemalloc."""

    def watch(fn):
        @functools.wraps(fn)
        def watched(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)

        return watched

    tracemalloc.start()
    try:
        with patch_attributes((owner, attr, watch(getattr(owner, attr)))
                              for owner, attr in targets):
            yield
    finally:
        tracemalloc.stop()


def span_totals(spans: list[list]) -> tuple[list[int], list[int]]:
    """Inclusive and self duration of every span, in ns. Self time is the
    duration minus the durations of the span's direct children."""
    incl = [s[4] - s[3] for s in spans]
    child = [0] * len(spans)
    for s, d in zip(spans, incl):
        if s[5] is not None:
            child[s[5]] += d
    return incl, [d - c for d, c in zip(incl, child)]
