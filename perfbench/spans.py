"""In-memory span tracer that wraps a program's functions from the outside.

A span is (name, start, end, parent): one call of a wrapped function.
Functions are wrapped where their callers look them up (a module
attribute) and restored when the ``patched`` block ends.  Single-threaded
by design: the open-span stack is a plain list.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """Wrap ``getattr(module, attr)`` as spans called ``span``.

    ``measure`` maps a call's result to a number added to the counter of
    the same name as the span plus ``.bytes``.
    """

    module: object
    attr: str
    span: str
    measure: Optional[Callable[[object], int]] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, Optional[int]]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent)
            self.counts[name + ".calls"] += 1
            if measure is not None:
                self.counts[name + ".bytes"] += measure(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets: list[Target]):
        originals = [(t.module, t.attr, getattr(t.module, t.attr)) for t in targets]
        try:
            for t, (_, _, fn) in zip(targets, originals):
                setattr(t.module, t.attr, self.wrap(t.span, fn, t.measure))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return dict(out)
