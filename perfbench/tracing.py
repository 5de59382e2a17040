"""In-memory spans around the public functions of mdrdf's layers.

A traced run replaces each function where its callers look it up (for
example `mdrdf.rdf.solve_spectrum`, which `evaluate` reads from the rdf
module) with a wrapper that records one span per call: name, start, end,
parent span, operation id and a work size. Spans stay in memory and are
written out when the run ends. Self time is a span's duration minus the
durations of its direct children; calls are nested on one thread, so the
children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    kind: str
    size: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = -1
        self.kind = ""
        self.op_keys: list[str] = []

    def begin_op(self, kind: str, key: str) -> None:
        """Tag the spans that follow with a new operation id and its kind.

        key names the operation's inputs; operations with one key repeat.
        """
        self.op += 1
        self.kind = kind
        self.op_keys.append(key)

    def _open(self, name: str, size: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, self.kind, size))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, size: int | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if size is not None:
            span.size = size
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (the benchmark's operation span)."""
        index = self._open(name, 0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, module, attr: str, name: str, size_of_args=None, size_of_result=None):
        """Replace module.attr by a recording wrapper until restore()."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name, size_of_args(*args) if size_of_args else 0)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self._close(index, size_of_result(result) if size_of_result and result is not None else None)

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def count_by_op(self, name: str) -> dict[int, int]:
        counts: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s.name == name:
                counts[s.op] += 1
        return counts

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "op": s.op,
                            "kind": s.kind,
                            "size": s.size,
                        }
                    )
                    + "\n"
                )
