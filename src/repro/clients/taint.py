"""GUI-aware taint client (the FlowDroid connection of Section 6).

Sources are user-input widgets — views whose class is (a subtype of)
``EditText`` — because "text entered by the user is associated with a
particular view and flows from that view, via the event handler, to the
rest of the application". A variable is tainted when a source view
flows to it; a finding is a call to a configured sink method with a
tainted argument (or receiver).

This deliberately piggybacks on the reference analysis' ``flowsTo``
relation: the point the paper makes is precisely that tracking the GUI
*objects* gives the taint front end its sources and handler-mediated
flow for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.nodes import Site, ValueNode, value_is_a
from repro.core.results import AnalysisResult

DEFAULT_SOURCE_CLASSES: FrozenSet[str] = frozenset({"android.widget.EditText"})
DEFAULT_SINKS: FrozenSet[str] = frozenset(
    {"sendTextMessage", "execute", "write", "log", "post", "upload"}
)


@dataclass(frozen=True)
class TaintFinding:
    """A source view reaching a sink call."""

    source: ValueNode
    sink_site: Site
    sink_method: str
    via_var: str

    def __str__(self) -> str:
        return (
            f"user input from {self.source} reaches {self.sink_method}() "
            f"at {self.sink_site} via {self.via_var!r}"
        )


def run_taint_analysis(
    result: AnalysisResult,
    source_classes: FrozenSet[str] = DEFAULT_SOURCE_CLASSES,
    sinks: FrozenSet[str] = DEFAULT_SINKS,
) -> List[TaintFinding]:
    """Find source views flowing into sink call arguments."""
    hierarchy = result.hierarchy

    def is_source(value: ValueNode) -> bool:
        return any(value_is_a(hierarchy, value, source) for source in source_classes)

    findings: List[TaintFinding] = []
    for sig, index, stmt, _targets in result.invoke_sites:
        if stmt.method_name not in sinks:
            continue
        site = Site(sig, index, stmt.line)
        for var in stmt.args + ((stmt.base,) if stmt.base else ()):
            node = result.graph.lookup_var(sig, var)
            if node is None:
                continue
            for value in result.values_at(node):
                if is_source(value):
                    findings.append(TaintFinding(value, site, stmt.method_name, var))
    return findings
