"""Solver benchmarking: the synthetic scaling family and the CI guard.

* :func:`scaled_spec` — the synthetic scaling family shared by
  ``benchmarks/``, perfbench and the tests;
* :func:`solver_record` — the per-run solver numbers a batch
  ``analyze_job`` payload and perfbench report;
* ``python -m repro.bench perfsmoke`` — the CI regression guard: on a
  quick subset, the semi-naive scheduler must never evaluate more rule
  instances than the naive sweep would (wall-clock is deliberately not
  checked — CI machines are noisy; scheduled-op counts are exact).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.analysis import AnalysisOptions, analyze
from repro.core.results import AnalysisResult
from repro.corpus.generator import generate_app
from repro.corpus.spec import AppSpec


def scaled_spec(scale: int) -> AppSpec:
    """The synthetic scaling family."""
    return AppSpec(
        name=f"scale{scale}",
        classes=60 * scale,
        methods=300 * scale,
        layout_ids=6 * scale,
        view_ids=30 * scale,
        views_inflated=60 * scale,
        views_allocated=4 * scale,
        listeners=8 * scale,
        ops_inflate=6 * scale,
        ops_findview=20 * scale,
        ops_addview=3 * scale,
        ops_setid=2 * scale,
        ops_setlistener=8 * scale,
        recv_avg=1.2,
        result_avg=1.1,
        param_avg=1.1,
        listener_avg=1.1,
        seed=900 + scale,
    )


def solver_record(result: AnalysisResult) -> Dict[str, object]:
    """The solver effort and convergence numbers of one run."""
    return {
        "solver": result.solver,
        "solve_seconds": round(result.solve_seconds, 6),
        "rounds": result.rounds,
        "converged": result.converged,
        "ops_scheduled": result.ops_scheduled,
        "ops_skipped": result.ops_skipped,
        "values_added": result.values_added,
        "work_items": result.work_items,
    }


# -- CI perf smoke ------------------------------------------------------------

PERFSMOKE_APPS = ("APV", "NotePad", "TippyTipper", "XBMC")
PERFSMOKE_SCALE = 4


def perfsmoke(app_names: Sequence[str] = PERFSMOKE_APPS) -> List[str]:
    """Scheduler regression guard; returns failure messages (empty = pass)."""
    from repro.corpus.apps import spec_by_name

    failures: List[str] = []
    targets = [(name, generate_app(spec_by_name(name))) for name in app_names]
    scale_spec = scaled_spec(PERFSMOKE_SCALE)
    targets.append((scale_spec.name, generate_app(scale_spec)))
    for name, app in targets:
        naive = analyze(app, AnalysisOptions(solver="naive"))
        semi = analyze(app, AnalysisOptions(solver="seminaive"))
        if semi.ops_scheduled > naive.ops_scheduled:
            failures.append(
                f"{name}: semi-naive evaluated {semi.ops_scheduled} rule "
                f"instances, naive sweep needs only {naive.ops_scheduled}"
            )
        if semi.ops_skipped <= 0:
            failures.append(f"{name}: scheduler never skipped an evaluation")
        if naive.rounds != semi.rounds:
            failures.append(
                f"{name}: round counts diverge (naive {naive.rounds}, "
                f"semi-naive {semi.rounds})"
            )
    return failures


def main_perfsmoke() -> str:
    failures = perfsmoke()
    lines = ["Perf smoke: semi-naive scheduler vs naive sweep"]
    if failures:
        lines.extend(f"  FAIL {f}" for f in failures)
        raise SystemExit("\n".join(lines))
    lines.append(
        f"  ok: {len(PERFSMOKE_APPS)} corpus apps + scale{PERFSMOKE_SCALE} "
        "synthetic, scheduler within naive effort on all"
    )
    return "\n".join(lines)
