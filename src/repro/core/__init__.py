"""The paper's primary contribution: constraint-based GUI reference analysis.

Layout of the package:

* :mod:`repro.core.nodes` — constraint-graph node kinds (Section 4.1):
  variables, fields, allocation sites, activities, layout/view ids,
  inflated-view nodes, operation nodes and their input ports;
* :mod:`repro.core.graph` — the constraint graph: interned nodes, flow
  edges (``→``) and relationship edges (``⇒``);
* :mod:`repro.core.builder` — graph construction from an
  :class:`~repro.app.AndroidApp` (phase 1 of Section 4.3), optionally
  with 1-call-site contexts (``AnalysisOptions.call_site_context``, the
  paper's suggested fix for the XBMC outlier);
* :mod:`repro.core.analysis` — the fixed-point solver computing
  ``flowsTo`` and ``ancestorOf`` and applying the operation inference
  rules (Sections 4.2–4.3);
* :mod:`repro.core.results` — the solution query API;
* :mod:`repro.core.metrics` — the Table 1 / Table 2 measurements.
"""

from repro.core.nodes import (
    ActivityNode,
    AllocNode,
    FieldNode,
    InflViewNode,
    LayoutIdNode,
    Node,
    OpArg,
    OpNode,
    OpRecv,
    Site,
    StaticFieldNode,
    ValueNode,
    VarNode,
    ViewIdNode,
)
from repro.core.graph import ConstraintGraph, RelKind
from repro.core.builder import build_constraint_graph
from repro.core.analysis import AnalysisOptions, GuiReferenceAnalysis, analyze
from repro.core.results import AnalysisResult, GuiTuple
from repro.core.metrics import GraphStats, PrecisionMetrics, compute_graph_stats, compute_precision

__all__ = [
    "ActivityNode",
    "AllocNode",
    "AnalysisOptions",
    "AnalysisResult",
    "ConstraintGraph",
    "FieldNode",
    "GraphStats",
    "GuiReferenceAnalysis",
    "GuiTuple",
    "InflViewNode",
    "LayoutIdNode",
    "Node",
    "OpArg",
    "OpNode",
    "OpRecv",
    "PrecisionMetrics",
    "RelKind",
    "Site",
    "StaticFieldNode",
    "ValueNode",
    "VarNode",
    "ViewIdNode",
    "analyze",
    "build_constraint_graph",
    "compute_graph_stats",
    "compute_precision",
]
