"""Table 1: analyzed applications and relevant constraint-graph nodes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import analyze
from repro.core.metrics import GraphStats, compute_graph_stats
from repro.corpus.apps import specs_named
from repro.corpus.spec import AppSpec
from repro.bench.reporting import render_table
from repro.runner import BatchOptions, run_batch

HEADERS = [
    "App",
    "Classes",
    "Methods",
    "ids L/V",
    "views I/A",
    "listeners",
    "Inflate",
    "FindView",
    "AddView",
    "SetId",
    "SetListener",
]


@dataclass
class Table1Row:
    spec: AppSpec
    stats: GraphStats

    def matches_spec(self) -> bool:
        s, spec = self.stats, self.spec
        return (
            s.classes == spec.classes
            and s.methods == spec.methods
            and s.layout_ids == spec.layout_ids
            and s.view_ids == spec.view_ids
            and s.views_inflated == spec.views_inflated
            and s.views_allocated == spec.views_allocated
            and s.listeners == spec.listeners
            and s.ops_inflate == spec.ops_inflate
            and s.ops_findview == spec.ops_findview
            and s.ops_addview == spec.ops_addview
            and s.ops_setid == spec.ops_setid
            and s.ops_setlistener == spec.ops_setlistener
        )


def _table1_job(app, options) -> GraphStats:
    """Worker-side job: analyze one app and return its Table 1 stats."""
    return compute_graph_stats(analyze(app, options))


def run_table1(
    app_names: Optional[Sequence[str]] = None, jobs: int = 1
) -> List[Table1Row]:
    """Generate + analyze the corpus and compute the Table 1 rows.

    The apps run on the fault-isolated batch runner with ``jobs``
    workers; row order always follows the spec list. An unknown app
    name raises :class:`~repro.errors.ReproError`.
    """
    specs = specs_named(app_names)
    batch = run_batch(
        [s.name for s in specs],
        BatchOptions(jobs=jobs, continue_on_error=True),
        job=_table1_job,
    )
    batch.require_ok()
    stats = batch.payloads()
    return [Table1Row(spec=s, stats=stats[s.name]) for s in specs]


def format_table1(rows: Sequence[Table1Row]) -> str:
    return render_table(
        HEADERS,
        [row.stats.as_row() for row in rows],
        title="Table 1: Analyzed applications and relevant constraint graph nodes",
    )


def main(app_names: Optional[Sequence[str]] = None, jobs: int = 1) -> str:
    rows = run_table1(app_names, jobs=jobs)
    text = format_table1(rows)
    mismatches = [row.spec.name for row in rows if not row.matches_spec()]
    if mismatches:
        text += "\n\nWARNING: spec mismatches for: " + ", ".join(mismatches)
    else:
        text += "\n\nAll rows match the target specifications exactly."
    return text
