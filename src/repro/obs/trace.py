"""Lightweight tracing: nested spans over a deterministic clock.

A :class:`Tracer` records :class:`Span` trees — sync → file → chunk →
share put/get — with timestamps taken from a :class:`repro.util.clock.Clock`,
so traces of simulated runs are bit-for-bit reproducible.  Spans export
as plain JSON (for tests) and as a Chrome-trace ``traceEvents`` file
(open in ``chrome://tracing`` / Perfetto) where each CSP gets its own
thread lane.

No globals: a tracer is an explicit object that its owner attaches to
a :class:`repro.obs.Observability` facade, the way the clock is
injected.  It holds every span it records for its own lifetime, so a
default client attaches none (see :mod:`repro.obs` for who does).
The active-span stack belongs to the pipeline thread that opens spans;
pool workers attach their already-timed op intervals via
:meth:`Tracer.record` under the tracer's lock, so concurrent recording
interleaves children without corrupting the tree (attachment order
between workers is scheduling-dependent, timestamps are not).
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.util.clock import Clock, WallClock


@dataclass
class Span:
    """One timed operation; children nest inside the parent interval."""

    span_id: int
    name: str
    start: float
    end: float | None = None
    parent_id: int | None = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All descendants (including self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }


class Tracer:
    """Records span trees against an injected clock."""

    def __init__(self, clock: Clock | None = None):
        self.clock = clock or WallClock()
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.RLock()

    # -- recording --------------------------------------------------------

    def start_span(self, name: str, **attrs) -> Span:
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            span = Span(
                span_id=next(self._ids),
                name=name,
                start=self.clock.now(),
                parent_id=parent.span_id if parent else None,
                attrs=attrs,
            )
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
            self._stack.append(span)
            return span

    def end_span(self, span: Span) -> None:
        with self._lock:
            if span.end is None:
                span.end = self.clock.now()
            while self._stack and self._stack[-1] is not span:
                # close abandoned inner spans rather than corrupting nesting
                dangling = self._stack.pop()
                if dangling.end is None:
                    dangling.end = span.end
            if self._stack and self._stack[-1] is span:
                self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        span = self.start_span(name, **attrs)
        try:
            yield span
        finally:
            self.end_span(span)

    def record(self, name: str, start: float, end: float, **attrs) -> Span:
        """Attach an already-timed interval (e.g. an engine OpResult)
        as a child of the currently open span."""
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            span = Span(
                span_id=next(self._ids),
                name=name,
                start=start,
                end=end,
                parent_id=parent.span_id if parent else None,
                attrs=attrs,
            )
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
            return span

    # -- queries ----------------------------------------------------------

    def all_spans(self) -> list[Span]:
        with self._lock:
            roots = list(self.roots)
        return [s for root in roots for s in root.walk()]

    def find(self, name: str) -> list[Span]:
        return [s for s in self.all_spans() if s.name == name]

    def check_well_formed(self, slack: float = 1e-9) -> list[str]:
        """Structural validation; returns a list of problems (empty = ok).

        Checks: every span is finished; end >= start; every child
        interval lies within its parent's (within ``slack``); parent ids
        match the actual tree; span ids are unique.
        """
        problems: list[str] = []
        seen: set[int] = set()
        for root in self.roots:
            for span in root.walk():
                if span.span_id in seen:
                    problems.append(f"duplicate span id {span.span_id}")
                seen.add(span.span_id)
                if not span.finished:
                    problems.append(f"unfinished span {span.name!r}")
                    continue
                if span.end < span.start:
                    problems.append(
                        f"span {span.name!r} ends before it starts"
                    )
                for child in span.children:
                    if child.parent_id != span.span_id:
                        problems.append(
                            f"span {child.name!r} has wrong parent_id"
                        )
                    if not child.finished:
                        continue
                    if (child.start < span.start - slack
                            or (span.end is not None
                                and child.end > span.end + slack)):
                        problems.append(
                            f"child {child.name!r} "
                            f"[{child.start:.6f}, {child.end:.6f}] outside "
                            f"parent {span.name!r} "
                            f"[{span.start:.6f}, {span.end:.6f}]"
                        )
        return problems

    # -- export -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"spans": [root.to_dict() for root in self.roots]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON: one complete (``ph: "X"``) event per
        span, timestamps in microseconds.  Spans carrying a ``csp``
        attribute land on that CSP's thread lane; the rest go to the
        ``client`` lane, so the paper's parallel per-CSP transfer
        pictures (Figures 14/17) fall straight out of the viewer."""
        lanes: dict[str, int] = {"client": 0}
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "cyrus"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "client"}},
        ]
        for span in self.all_spans():
            if not span.finished:
                continue
            csp = span.attrs.get("csp")
            lane_name = str(csp) if csp else "client"
            tid = lanes.get(lane_name)
            if tid is None:
                tid = len(lanes)
                lanes[lane_name] = tid
                events.append(
                    {"name": "thread_name", "ph": "M", "pid": 1,
                     "tid": tid, "args": {"name": lane_name}}
                )
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "args": {k: v for k, v in span.attrs.items()
                             if isinstance(v, (str, int, float, bool))},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_chrome_trace(), indent=indent)
