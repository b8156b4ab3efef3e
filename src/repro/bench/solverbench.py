"""Solver benchmarking: naive-vs-semi-naive comparison and BENCH_solver.json.

Three consumers share this module:

* ``python -m repro.bench table2 --json`` — records per-app solver
  stats for the whole corpus into ``BENCH_solver.json``;
* ``benchmarks/test_scalability.py`` — records the mode-vs-mode
  speedup on the synthetic scaling family into the same file;
* ``python -m repro.bench perfsmoke`` — the CI regression guard: on a
  quick subset, the semi-naive scheduler must never evaluate more rule
  instances than the naive sweep would (wall-clock is deliberately not
  checked — CI machines are noisy; scheduled-op counts are exact).

``BENCH_solver.json`` is a merge-updated document so the perf
trajectory accumulates across runs and PRs::

    {"schema": "repro.bench.solver/1",
     "apps": {"APV": {"solver": "seminaive", "solve_seconds": ..., ...}},
     "scalability": {"scale8": {"naive": {...}, "seminaive": {...},
                                "speedup": ...}}}
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from repro.core.analysis import AnalysisOptions, analyze
from repro.core.results import AnalysisResult
from repro.corpus.generator import generate_app
from repro.corpus.spec import AppSpec

SCHEMA = "repro.bench.solver/1"

DEFAULT_PATH = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "..", "BENCH_solver.json")
)


def scaled_spec(scale: int) -> AppSpec:
    """The synthetic scaling family (shared with benchmarks/)."""
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
    """The per-run numbers BENCH_solver.json tracks."""
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


def load_bench(path: str = DEFAULT_PATH) -> Dict[str, object]:
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
        if data.get("schema") == SCHEMA:
            return data
    return {"schema": SCHEMA, "apps": {}, "scalability": {}}


def update_bench(
    path: str = DEFAULT_PATH,
    apps: Optional[Dict[str, Dict[str, object]]] = None,
    scalability: Optional[Dict[str, Dict[str, object]]] = None,
) -> Dict[str, object]:
    """Merge new records into ``BENCH_solver.json`` and rewrite it."""
    data = load_bench(path)
    if apps:
        data.setdefault("apps", {}).update(apps)
    if scalability:
        data.setdefault("scalability", {}).update(scalability)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    return data


def compare_solvers(app, repeats: int = 1) -> Dict[str, object]:
    """Run both solver modes on ``app``; report records and speedup.

    ``repeats`` > 1 keeps the fastest time per mode (minimum damps
    scheduler-independent noise; the op counts are deterministic).
    """
    best: Dict[str, AnalysisResult] = {}
    for mode in ("naive", "seminaive"):
        for _ in range(max(1, repeats)):
            result = analyze(app, AnalysisOptions(solver=mode))
            prior = best.get(mode)
            if prior is None or result.solve_seconds < prior.solve_seconds:
                best[mode] = result
    naive, semi = best["naive"], best["seminaive"]
    return {
        "naive": solver_record(naive),
        "seminaive": solver_record(semi),
        "speedup": round(
            naive.solve_seconds / max(semi.solve_seconds, 1e-9), 3
        ),
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
