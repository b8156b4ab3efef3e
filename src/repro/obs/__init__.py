"""Solver observability: structured tracing, counters, JSON telemetry.

A zero-dependency layer that explains where the analysis spends its
rounds and time, in the spirit of the paper's per-app evaluation
breakdowns. The pieces:

* :mod:`repro.obs.tracer` — the :class:`Tracer` (``span()`` /
  ``counter()`` / ``event()``) and :data:`OFF`, the tracer that
  records nothing and the default of every instrumented entry point;
* :mod:`repro.obs.names` — the canonical span/counter/event names,
  including the per-inference-rule counters keyed by ``OpKind``;
* :mod:`repro.obs.export` — the ``repro.obs/1`` JSON exporter.

Entry points: ``python -m repro analyze PROJECT --profile
[--profile-json FILE]``, ``python -m repro lint PROJECT --profile``,
``python -m repro batch APP... --profile`` and ``python -m repro.bench
table2 --profile``; in code, pass a ``Tracer()`` as ``tracer=``.
The schema is documented in ``docs/OBSERVABILITY.md``.
"""

from repro.obs import names
from repro.obs.export import snapshot, to_json
from repro.obs.tracer import OFF, EventRecord, SpanRecord, Tracer

__all__ = [
    "OFF",
    "EventRecord",
    "SpanRecord",
    "Tracer",
    "names",
    "snapshot",
    "to_json",
]
