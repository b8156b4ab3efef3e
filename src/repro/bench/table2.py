"""Table 2: analysis time and solution-size precision averages.

For every app the harness reports the measured value next to the
paper's (where legible in our copy; the receivers column and the times
are, the other three columns are not — see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import analyze
from repro.core.metrics import PrecisionMetrics, compute_precision
from repro.corpus.apps import specs_named
from repro.corpus.generator import generate_app
from repro.corpus.spec import AppSpec
from repro.bench.reporting import render_table, render_telemetry
from repro.obs import names as obs_names
from repro.obs.tracer import OFF, Tracer
from repro.runner import BatchOptions, run_batch

HEADERS = [
    "App",
    "Time(s)",
    "Time paper",
    "recv",
    "recv paper",
    "param",
    "result",
    "lst",
]


@dataclass
class Table2Row:
    spec: AppSpec
    metrics: PrecisionMetrics

    def as_row(self) -> List[str]:
        m, paper = self.metrics, self.spec.paper

        def fmt(x: Optional[float]) -> str:
            return f"{x:.2f}" if x is not None else "-"

        return [
            self.spec.name,
            fmt(m.solve_seconds),
            fmt(paper.time_seconds),
            fmt(m.receivers),
            fmt(paper.receivers),
            fmt(m.parameters),
            fmt(m.results),
            fmt(m.listeners),
        ]

    def receivers_drift(self) -> Optional[float]:
        if self.metrics.receivers is None or self.spec.paper.receivers is None:
            return None
        return abs(self.metrics.receivers - self.spec.paper.receivers)


def _table2_job(app, options) -> PrecisionMetrics:
    """Worker-side job: the precision metrics of one app."""
    return compute_precision(analyze(app, options))


def run_table2(
    app_names: Optional[Sequence[str]] = None,
    tracer: Tracer = OFF,
    jobs: int = 1,
) -> List[Table2Row]:
    """Analyze the requested corpus apps and collect Table 2 rows.

    The apps run on the fault-isolated batch runner with ``jobs``
    workers; row order always follows the spec list. An unknown app
    name raises :class:`~repro.errors.ReproError`. Measured times
    are per-app solver times, so parallelism does not distort the
    Time(s) column. With a ``tracer`` other than :data:`repro.obs.OFF`
    every app is analyzed in this process inside an ``app`` span (attr
    ``app``), so one tracer accumulates telemetry for the whole run —
    build/solve timings nest per app, counters aggregate.
    """
    specs = specs_named(app_names)
    if tracer is not OFF:
        # Spans and counters cannot cross the worker pipe, so a
        # profiled run analyzes every app in this process.
        metrics = {}
        for spec in specs:
            app = generate_app(spec)
            with tracer.span(obs_names.SPAN_APP, app=spec.name):
                result = analyze(app, tracer=tracer)
            metrics[spec.name] = compute_precision(result)
    else:
        batch = run_batch(
            [s.name for s in specs],
            BatchOptions(jobs=jobs, continue_on_error=True),
            job=_table2_job,
        )
        batch.require_ok()
        metrics = batch.payloads()
    return [Table2Row(spec=s, metrics=metrics[s.name]) for s in specs]


def format_table2(rows: Sequence[Table2Row]) -> str:
    return render_table(
        HEADERS,
        [row.as_row() for row in rows],
        title="Table 2: Analysis running time and average solution sizes "
        "(measured vs paper)",
    )


def main(
    app_names: Optional[Sequence[str]] = None,
    profile: bool = False,
    jobs: int = 1,
) -> str:
    tracer = Tracer() if profile else OFF
    rows = run_table2(app_names, tracer=tracer, jobs=jobs)
    text = format_table2(rows)
    drifts = [d for row in rows if (d := row.receivers_drift()) is not None]
    if drifts:
        text += (
            f"\n\nreceivers column: max |measured - paper| = {max(drifts):.3f} "
            f"over {len(drifts)} apps"
        )
    precise = sum(
        1 for row in rows if row.metrics.receivers is not None and row.metrics.receivers < 2.0
    )
    text += f"\napps with receivers average below 2: {precise}/{len(rows)} (paper: 16/20)"
    if profile:
        text += "\n\n" + render_telemetry(tracer)
    return text
