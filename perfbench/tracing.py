"""In-memory spans around calls into weaklab's public functions.

The benchmark records spans from its own files: it replaces module and
class attributes of weaklab with timing wrappers for the length of the
traced run and restores them afterwards.  Callers inside weaklab look those
names up at call time, so the CLI runs unchanged while every call into a
traced function opens a span.  Each span holds its name, start and end
(perf_counter_ns), the index of the span that was open when it started, the
id of the CLI call it belongs to, the experiment cell of the enclosing
trial, and a few counts read off the function's result.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable

_now = time.perf_counter_ns


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into Tracer.spans, -1 at the root
    op: int  # id of the CLI call the span belongs to
    cell: str | None
    data: dict | None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self.cell: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0, 0, parent, self.op, self.cell, None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(
        self,
        name: str,
        fn: Callable,
        annotate: Callable[[Any], dict] | None = None,
        cell_of: Callable[[tuple, dict], str] | None = None,
    ) -> Callable:
        """A wrapper that records one span per call of ``fn``.  ``annotate``
        reads counts off the result; ``cell_of`` names the experiment cell
        that nested spans inherit."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            outer_cell = tracer.cell
            if cell_of is not None:
                tracer.cell = span.cell = cell_of(args, kwargs)
            span.start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = _now()
                span.data = {"error": type(exc).__name__}
                raise
            finally:
                tracer._stack.pop()
                tracer.cell = outer_cell
            span.end = _now()
            if annotate is not None:
                span.data = annotate(result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A wrapper for a generator function that records one span per
        item produced, covering only the time spent inside the generator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = tracer._open(name)
                span.start = _now()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    span.end = _now()
                    tracer._stack.pop()
                yield item

        return wrapper

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` once inside a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span, its duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration_ns
        return [s.duration_ns - c for s, c in zip(self.spans, child)]

    def shares(self, root: str) -> dict[str, tuple[float, float]]:
        """Per span name, its inclusive and self time as shares of the time
        of the spans named ``root``.  Inclusive time counts only spans with
        no ancestor of the same name, so that nesting is not counted twice."""
        total = sum(s.duration_ns for s in self.spans if s.name == root)
        if not total:
            return {}
        incl: dict[str, int] = {}
        own: dict[str, int] = {}
        for s, self_ns in zip(self.spans, self.self_ns()):
            own[s.name] = own.get(s.name, 0) + self_ns
            p = s.parent
            while p >= 0 and self.spans[p].name != s.name:
                p = self.spans[p].parent
            if p < 0:
                incl[s.name] = incl.get(s.name, 0) + s.duration_ns
        return {n: (incl[n] / total, own[n] / total) for n in incl}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start_ns": s.start,
                            "end_ns": s.end,
                            "parent": s.parent,
                            "op": s.op,
                            "cell": s.cell,
                            "data": s.data,
                        }
                    )
                    + "\n"
                )
