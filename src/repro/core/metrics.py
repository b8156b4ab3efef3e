"""Measurements reproducing Tables 1 and 2 of the paper.

* :class:`GraphStats` — Table 1: application size (classes/methods),
  constraint-graph object and id node counts, and operation node
  counts by category.
* :class:`PrecisionMetrics` — Table 2: the four average-set-size
  precision measurements. Smaller is more precise; 1.0 is the lower
  bound.
* :func:`solver_record` — solver-effort companion to the tables:
  rounds, convergence, scheduling and worklist traffic. Available on
  every run; the ``repro.obs`` tracer adds the per-round and per-rule
  breakdowns on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.nodes import OpNode
from repro.core.results import AnalysisResult
from repro.platform.api import OpKind

# Operation kinds whose receiver is a view (the Table 2 "receivers"
# population; FindView2/Inflate2/AddView1 take activity receivers and
# are excluded, matching the paper's examples "FindView and AddView2").
_VIEW_RECEIVER_KINDS = (
    OpKind.FINDVIEW1,
    OpKind.FINDVIEW3,
    OpKind.ADDVIEW2,
    OpKind.SETID,
    OpKind.SETLISTENER,
    OpKind.GETPARENT,
)

_FINDVIEW_KINDS = (OpKind.FINDVIEW1, OpKind.FINDVIEW2, OpKind.FINDVIEW3)
_ADDVIEW_KINDS = (OpKind.ADDVIEW1, OpKind.ADDVIEW2)
_INFLATE_KINDS = (OpKind.INFLATE1, OpKind.INFLATE2)


@dataclass
class GraphStats:
    """Table 1 row: application and constraint-graph statistics."""

    app_name: str
    classes: int
    methods: int
    layout_ids: int
    view_ids: int
    views_inflated: int
    views_allocated: int
    listeners: int
    ops_inflate: int
    ops_findview: int
    ops_addview: int
    ops_setid: int
    ops_setlistener: int

    def as_row(self) -> List[str]:
        return [
            self.app_name,
            str(self.classes),
            str(self.methods),
            f"{self.layout_ids}/{self.view_ids}",
            f"{self.views_inflated}/{self.views_allocated}",
            str(self.listeners),
            str(self.ops_inflate),
            str(self.ops_findview),
            str(self.ops_addview),
            str(self.ops_setid),
            str(self.ops_setlistener),
        ]


@dataclass
class PrecisionMetrics:
    """Table 2 row: the four average-solution-size measurements.

    ``None`` means the population is empty (the paper's "-" entries for
    programs without add-view operations).
    """

    app_name: str
    solve_seconds: float
    receivers: Optional[float]
    parameters: Optional[float]
    results: Optional[float]
    listeners: Optional[float]

    @staticmethod
    def _fmt(value: Optional[float]) -> str:
        return f"{value:.2f}" if value is not None else "-"

    def as_row(self) -> List[str]:
        return [
            self.app_name,
            f"{self.solve_seconds:.2f}",
            self._fmt(self.receivers),
            self._fmt(self.parameters),
            self._fmt(self.results),
            self._fmt(self.listeners),
        ]


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


def _average(sizes: Sequence[int]) -> Optional[float]:
    populated = [s for s in sizes if s > 0]
    if not populated:
        return None
    return sum(populated) / len(populated)


def compute_graph_stats(result: AnalysisResult) -> GraphStats:
    """Compute the Table 1 statistics from a solved analysis."""
    graph = result.graph
    program = result.app.program
    classes = sum(1 for _ in program.application_classes())
    methods = sum(1 for _ in program.application_methods())
    resources = result.app.resources

    def count_ops(kinds: Sequence[OpKind]) -> int:
        return sum(1 for op in graph.ops() if op.kind in kinds)

    return GraphStats(
        app_name=result.app.name,
        classes=classes,
        methods=methods,
        layout_ids=resources.layout_count(),
        view_ids=resources.view_id_count(),
        views_inflated=len(graph.infl_view_nodes()),
        views_allocated=len(graph.view_allocs),
        listeners=len(graph.listener_allocs),
        ops_inflate=count_ops(_INFLATE_KINDS),
        ops_findview=count_ops(_FINDVIEW_KINDS),
        ops_addview=count_ops(_ADDVIEW_KINDS),
        ops_setid=count_ops((OpKind.SETID,)),
        ops_setlistener=count_ops((OpKind.SETLISTENER,)),
    )


def compute_precision(
    result: AnalysisResult, ops: Optional[Sequence[OpNode]] = None
) -> PrecisionMetrics:
    """Compute the Table 2 precision averages from a solved analysis.

    ``ops`` restricts the measured population to the given op nodes.
    """
    population = list(ops) if ops is not None else result.graph.ops()

    receiver_sizes = [
        len(result.op_view_receivers(op))
        for op in population
        if op.kind in _VIEW_RECEIVER_KINDS
    ]
    parameter_sizes = [
        len(result.op_view_args(op)) for op in population if op.kind in _ADDVIEW_KINDS
    ]
    result_sizes = [
        len(result.op_results(op)) for op in population if op.kind in _FINDVIEW_KINDS
    ]
    listener_sizes = [
        len(result.op_listener_args(op))
        for op in population
        if op.kind is OpKind.SETLISTENER
    ]

    return PrecisionMetrics(
        app_name=result.app.name,
        solve_seconds=result.solve_seconds,
        receivers=_average(receiver_sizes),
        parameters=_average(parameter_sizes),
        results=_average(result_sizes),
        listeners=_average(listener_sizes),
    )
