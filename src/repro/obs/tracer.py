"""The trace-event collector behind the observability layer.

A :class:`Tracer` accumulates three record families (the schema is
documented in ``docs/OBSERVABILITY.md``):

* **spans** — named, nested wall-clock intervals (the analysis phases:
  ``load``, ``build``, ``solve``, ``clients``), recorded via the
  ``with tracer.span(name):`` context manager;
* **counters** — monotone named totals (rule firings, edges added),
  bumped via ``tracer.counter(name, value)``;
* **events** — timestamped point records with attributes (one
  ``solver.round`` event per fixed-point round), via
  ``tracer.event(name, **attrs)``.

Instrumented code never creates a tracer itself: it receives one as
an argument, which defaults to :data:`OFF`, the shared tracer that
records nothing. Instrumented code therefore has one path and always
calls its tracer; an unprofiled run pays one no-op call per record.

Timestamps come from an injectable ``clock`` (default
``time.perf_counter``) expressed relative to the tracer's creation
time, which keeps the exported JSON deterministic under a fake clock
in tests.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class SpanRecord:
    """One completed (or still-open) named interval."""

    name: str
    start: float  # seconds since the tracer's epoch
    seconds: float  # filled in when the span closes
    parent: Optional[int]  # index of the enclosing span, None at top level
    attrs: Dict[str, object] = field(default_factory=dict)


@dataclass
class EventRecord:
    """One timestamped point event."""

    name: str
    ts: float  # seconds since the tracer's epoch
    attrs: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """Collects spans, counters, and events for one profiling session.

    A single tracer may observe several analysis runs (the Table 2
    harness profiles all requested apps into one tracer); counters
    accumulate across runs and spans distinguish runs by nesting.
    """

    SCHEMA = "repro.obs/1"

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self.counters: Dict[str, int] = {}
        self._open: List[int] = []  # stack of indices into ``spans``

    def _now(self) -> float:
        return self._clock() - self._epoch

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[SpanRecord]:
        """Record a named interval; nests under any open span."""
        parent = self._open[-1] if self._open else None
        record = SpanRecord(name, self._now(), 0.0, parent, dict(attrs))
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record.seconds = self._now() - record.start

    def counter(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the named counter (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def event(self, name: str, **attrs: object) -> None:
        """Record a point event with attributes."""
        self.events.append(EventRecord(name, self._now(), dict(attrs)))

    # -- reading ------------------------------------------------------------

    def is_empty(self) -> bool:
        return not (self.spans or self.events or self.counters)

    def phase_seconds(self) -> Dict[str, float]:
        """Total seconds aggregated by span name, nesting ignored.

        A parent span's total includes its children (``app`` covers
        ``build`` + ``solve`` in bench runs); names are only summed
        with themselves, so the mapping stays unambiguous.
        """
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals


class _Off(Tracer):
    """A tracer that records nothing; see :data:`OFF`."""

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[SpanRecord]:
        yield SpanRecord(name, 0.0, 0.0, None, attrs)

    def counter(self, name: str, value: int = 1) -> None:
        pass

    def event(self, name: str, **attrs: object) -> None:
        pass


# The default tracer of every instrumented entry point: its spans yield
# a throwaway record, and its counters and events are dropped, so it
# stays empty however many runs it observes.
OFF: Tracer = _Off()
