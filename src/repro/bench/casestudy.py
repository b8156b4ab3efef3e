"""The Section 5 case study.

The paper manually determined the "perfectly-precise" solutions for
APV, BarcodeScanner, and SuperGenPass (the analysis matches them) and
for XBMC (receivers would be 3.59 instead of 8.81, results 1.63 instead
of the measured value; context sensitivity closes the gap).

Here the concrete interpreter plays the role of the manual inspection:
it executes each app and records the *actual* objects at every
operation, giving a dynamic lower bound on the solution. An app is
"perfectly precise" when the static per-operation sets match the
dynamic ones. For XBMC we additionally analyze with 1-call-site
contexts (``AnalysisOptions.call_site_context``) and report the
receivers average before/after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import AnalysisOptions, analyze
from repro.core.metrics import compute_precision
from repro.core.nodes import OpArg, OpRecv
from repro.core.results import AnalysisResult
from repro.corpus.apps import spec_by_name
from repro.corpus.generator import generate_app
from repro.semantics import check_soundness, run_app
from repro.semantics.trace import TagIndex, Trace
from repro.bench.reporting import render_table

PRECISE_APPS = ("APV", "BarcodeScanner", "SuperGenPass")
OUTLIER_APP = "XBMC"


@dataclass
class PrecisionComparison:
    """Static vs dynamic per-operation set sizes for one app."""

    app_name: str
    static_receivers: Optional[float]
    dynamic_receivers: Optional[float]
    static_results: Optional[float]
    dynamic_results: Optional[float]
    soundness_violations: int
    exactly_precise_ops: int
    total_compared_ops: int


def _dynamic_sets(result: AnalysisResult, trace: Trace):
    """Per-operation dynamic receiver/result abstraction sets."""
    recv: Dict[object, Set[object]] = {}
    outs: Dict[object, Set[object]] = {}
    index = TagIndex(result)
    for event in trace.events:
        op = result.graph.op_at(event.site)
        if op is None:
            continue
        if event.receiver is not None:
            for value in index.values(event.receiver):
                if result.is_view_value(value):
                    recv.setdefault(op, set()).add(value)
        if event.result is not None:
            for value in index.values(event.result):
                outs.setdefault(op, set()).add(value)
    return recv, outs


def compare_with_oracle(app_name: str, seed: int = 0) -> PrecisionComparison:
    """Static solution vs interpreter oracle for one corpus app."""
    app = generate_app(spec_by_name(app_name))
    result = analyze(app)
    run = run_app(app, seed=seed)
    report = check_soundness(result, run.trace)
    dyn_recv, dyn_out = _dynamic_sets(result, run.trace)

    exact = 0
    compared = 0
    recv_sizes_s: List[int] = []
    recv_sizes_d: List[int] = []
    out_sizes_s: List[int] = []
    out_sizes_d: List[int] = []
    for op, dynamic in dyn_recv.items():
        static = result.op_view_receivers(op)
        compared += 1
        if static == dynamic:
            exact += 1
        recv_sizes_s.append(len(static))
        recv_sizes_d.append(len(dynamic))
    for op, dynamic in dyn_out.items():
        static = result.op_results(op)
        compared += 1
        if static == dynamic:
            exact += 1
        out_sizes_s.append(len(static))
        out_sizes_d.append(len(dynamic))

    def avg(sizes: List[int]) -> Optional[float]:
        populated = [s for s in sizes if s > 0]
        return sum(populated) / len(populated) if populated else None

    return PrecisionComparison(
        app_name=app_name,
        static_receivers=avg(recv_sizes_s),
        dynamic_receivers=avg(recv_sizes_d),
        static_results=avg(out_sizes_s),
        dynamic_results=avg(out_sizes_d),
        soundness_violations=len(report.violations),
        exactly_precise_ops=exact,
        total_compared_ops=compared,
    )


@dataclass
class OutlierStudy:
    """XBMC under context insensitivity vs 1-call-site contexts."""

    receivers_insensitive: float
    receivers_context_sensitive: float
    results_insensitive: float
    results_context_sensitive: float
    # Call-site contexts created: one per (helper, calling site).
    cloned_methods: int
    paper_insensitive: float = 8.81
    paper_perfect: float = 3.59


def run_outlier_study() -> OutlierStudy:
    app = generate_app(spec_by_name(OUTLIER_APP))
    base = compute_precision(analyze(app))
    result = analyze(app, AnalysisOptions(call_site_context=True))
    refined = compute_precision(result)
    return OutlierStudy(
        receivers_insensitive=base.receivers or 0.0,
        receivers_context_sensitive=refined.receivers or 0.0,
        results_insensitive=base.results or 0.0,
        results_context_sensitive=refined.results or 0.0,
        cloned_methods=sum(len(sigs) for sigs in result.contexts.values()),
    )


def run_case_study() -> str:
    """Run the full case study and render the report."""

    def fmt(x: Optional[float]) -> str:
        return f"{x:.2f}" if x is not None else "-"

    rows = []
    for name in PRECISE_APPS:
        comparison = compare_with_oracle(name)
        rows.append(
            [
                name,
                fmt(comparison.static_receivers),
                fmt(comparison.dynamic_receivers),
                fmt(comparison.static_results),
                fmt(comparison.dynamic_results),
                f"{comparison.exactly_precise_ops}/{comparison.total_compared_ops}",
                str(comparison.soundness_violations),
            ]
        )
    table = render_table(
        ["App", "recv static", "recv oracle", "res static", "res oracle",
         "exact ops", "violations"],
        rows,
        title="Case study: static solution vs concrete-execution oracle",
    )
    outlier = run_outlier_study()
    lines = [
        table,
        "",
        f"{OUTLIER_APP} outlier:",
        f"  receivers context-insensitive : {outlier.receivers_insensitive:.2f} "
        f"(paper: {outlier.paper_insensitive:.2f})",
        f"  receivers 1-call-site contexts: {outlier.receivers_context_sensitive:.2f} "
        f"(paper perfectly-precise: {outlier.paper_perfect:.2f})",
        f"  results unchanged by contexts : "
        f"{outlier.results_insensitive:.2f} -> {outlier.results_context_sensitive:.2f}",
        f"  call-site contexts            : {outlier.cloned_methods}",
    ]
    return "\n".join(lines)
