"""Layer spans recorded from outside the program under test.

The benchmark times each layer by wrapping its calls into ``repro``'s
public functions in a span. A span records its wall interval, the time
its child spans cover (so self time is duration minus children), and,
in a memory pass, the ``tracemalloc`` peak while it was open. Peaks are
reset between layers, so each span's peak is the highest traced heap
during that layer alone.

Untraced passes use :data:`OFF`, whose spans and counts do nothing, so
the traced and untraced passes run the same code.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    app: str
    start: float
    end: float = 0.0
    child_seconds: float = 0.0
    peak_bytes: int = 0

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child_seconds


class Tracer:
    """Spans and work counts of one traced pass, keyed by app.

    With ``memory`` the spans also record tracemalloc peaks; the caller
    starts tracemalloc. Tracing every allocation slows allocation-heavy
    layers several times more than others, so self times come from a
    pass without it.
    """

    traced = True

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.app = ""
        self.spans: List[Span] = []
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._open: List[Span] = []

    def _fold_peak(self) -> None:
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            for span in self._open:
                span.peak_bytes = max(span.peak_bytes, peak)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        # Open spans keep the peak reached so far before it is reset.
        self._fold_peak()
        if self.memory:
            tracemalloc.reset_peak()
        span = Span(name, self.app, time.perf_counter())
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._fold_peak()
            self._open.pop()
            if self._open:
                self._open[-1].child_seconds += span.end - span.start
            self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.app][name] += value

    # -- aggregation -----------------------------------------------------------

    def self_seconds(self, name: str, app: Optional[str] = None) -> float:
        return sum(
            s.self_seconds
            for s in self.spans
            if s.name == name and (app is None or s.app == app)
        )

    def peak_kib(self, name: str, app: Optional[str] = None) -> float:
        peaks = [
            s.peak_bytes
            for s in self.spans
            if s.name == name and (app is None or s.app == app)
        ]
        return max(peaks, default=0) / 1024.0

    def total(self, name: str) -> float:
        return sum(per_app.get(name, 0) for per_app in self.counts.values())


class _Off:
    """The tracer of untraced passes: every span and count is a no-op."""

    traced = False
    app = ""

    def span(self, name: str) -> contextlib.nullcontext:
        return contextlib.nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        pass


OFF = _Off()


@dataclass
class Hook:
    """Calls seen by a wrapped entry point.

    ``found`` is False when the attribute does not exist, so a metric
    fed by the hook must be reported as unmeasured rather than 0.
    """

    target: str
    found: bool = False
    calls: int = 0

    def measured(self, expected: bool) -> bool:
        """Whether the hook's figures can be trusted on this workload."""
        return self.found and (self.calls > 0 or not expected)


@contextlib.contextmanager
def hooked(
    tracer: Tracer, module_name: str, attr: str, span_name: Optional[str] = None
) -> Iterator[Hook]:
    """Wrap ``module_name.attr`` for the duration of the block.

    The wrapper replaces the attribute in the module where the layer
    under test looks it up, because a name imported with ``from ...
    import`` is bound in the importing module, not where it is defined.
    Each call is counted and, with ``span_name``, recorded as a span.
    """
    hook = Hook(f"{module_name}.{attr}")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        module = None
    original = getattr(module, attr, None)
    if original is None:
        yield hook
        return
    hook.found = True

    def wrapper(*args, **kwargs):
        hook.calls += 1
        if span_name is None:
            return original(*args, **kwargs)
        with tracer.span(span_name):
            return original(*args, **kwargs)

    setattr(module, attr, wrapper)
    try:
        yield hook
    finally:
        setattr(module, attr, original)
