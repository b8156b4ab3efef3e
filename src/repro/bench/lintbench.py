"""Lint benchmarking: lint-pass cost and fact-order overhead per app.

``python -m repro.bench lint`` analyzes every corpus app twice — once
plain, once with the fact order table (``AnalysisOptions.provenance``)
— runs the lint pass, witnesses included, over the second solution,
and prints one row per app.

``provenance_overhead`` is a wall-clock ratio (solve time with the
order table over plain solve time, best of ``repeats``);
``lint_seconds`` includes rebuilding every finding's witness after
solving. The fact count (facts with an order number) is deterministic
and anchors the memory story.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.core.analysis import AnalysisOptions, analyze
from repro.corpus.apps import specs_named
from repro.lint import run_lint
from repro.runner import BatchOptions, run_batch


def lint_record(app, repeats: int = 1) -> Dict[str, object]:
    """Benchmark one app: solve plain vs provenance, then lint."""
    plain_best = prov_best = None
    prov_result = None
    for _ in range(max(1, repeats)):
        plain = analyze(app, AnalysisOptions())
        if plain_best is None or plain.solve_seconds < plain_best:
            plain_best = plain.solve_seconds
        prov = analyze(app, AnalysisOptions(provenance=True))
        if prov_best is None or prov.solve_seconds < prov_best:
            prov_best = prov.solve_seconds
            prov_result = prov
    start = time.perf_counter()
    report = run_lint(prov_result)
    lint_seconds = time.perf_counter() - start
    return {
        "solve_seconds_plain": round(plain_best, 6),
        "solve_seconds_provenance": round(prov_best, 6),
        "provenance_overhead": round(prov_best / max(plain_best, 1e-9), 3),
        "provenance_facts": prov_result.provenance.record_count(),
        "lint_seconds": round(lint_seconds, 6),
        "findings": len(report.findings),
    }


def _lint_job(app, options, repeats: int) -> Dict[str, object]:
    """Worker-side job: the full plain/provenance/lint benchmark."""
    del options  # lint_record drives its own AnalysisOptions pair
    return lint_record(app, repeats=repeats)


def main(
    app_names: Optional[Sequence[str]] = None,
    repeats: int = 3,
    jobs: int = 1,
) -> str:
    """Run the lint benchmark over the corpus and render it.

    The per-app benchmarks run on the fault-isolated batch runner with
    ``jobs`` workers; each worker still times its own app in isolation,
    so the wall-clock ratios stay meaningful (workers compete for
    cores, so absolute times are noisier — keep ``jobs`` at or below
    the physical core count). Rows follow the spec list; an unknown app
    name raises :class:`~repro.errors.ReproError`.
    """
    specs = specs_named(app_names or None)
    batch = run_batch(
        [s.name for s in specs],
        BatchOptions(jobs=jobs, continue_on_error=True),
        job=_lint_job,
        job_args=(repeats,),
    )
    batch.require_ok()
    records = batch.payloads()
    lines = [
        "Lint benchmark (overhead = solve with fact order / plain solve)",
        f"{'app':<14} {'plain(s)':>9} {'prov(s)':>9} {'overhead':>9} "
        f"{'facts':>8} {'lint(s)':>8} {'findings':>9}",
    ]
    for spec in specs:
        record = records[spec.name]
        lines.append(
            f"{spec.name:<14} {record['solve_seconds_plain']:>9.4f} "
            f"{record['solve_seconds_provenance']:>9.4f} "
            f"{record['provenance_overhead']:>9.3f} "
            f"{record['provenance_facts']:>8} "
            f"{record['lint_seconds']:>8.4f} "
            f"{record['findings']:>9}"
        )
    return "\n".join(lines)
