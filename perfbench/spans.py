"""In-memory spans around the library's public entry points.

A `Tracer` replaces chosen module attributes with wrappers that record
one span per call: name, start, end, parent span and thread, plus counts
computed from the call's arguments and result.  The wrappers exist only
while the tracer is installed; `uninstall` puts the original objects back.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from any thread; a worker thread's first span gets the
    span open on the main thread as its parent, since that span started it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1].id
            else:
                main = self._stacks.get(self._main) or []
                parent = main[-1].id if main and thread != self._main else None
            span = Span(len(self.spans), name, 0.0, parent, thread)
            self.spans.append(span)
            stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[span.thread].pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace `owner.attr` by a recording wrapper.

        `count(args, kwargs, result)` returns a dict of computed counts
        stored on the span; it runs after the span has closed.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def between(self, start: float, end: float) -> list[Span]:
        return [s for s in self.spans if start <= s.start and s.end <= end]

    def self_seconds(self, span: Span) -> float:
        """Span time minus the part of it its child spans cover."""
        children = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.spans
            if c.parent == span.id
        )
        covered = 0.0
        cursor = span.start
        for lo, hi in children:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.seconds - covered

    def descends_from(self, span: Span, ancestor: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if parent == ancestor.id:
                return True
            parent = self.spans[parent].parent
        return False

    def write_jsonl(self, path, origin: float) -> None:
        """One JSON record per span, times in seconds since `origin`."""
        with open(path, "w") as fh:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "parent": s.parent,
                    "thread": s.thread,
                    "counts": s.counts,
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
