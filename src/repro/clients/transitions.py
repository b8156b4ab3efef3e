"""Activity transition graph from GUI tuples.

Section 6 describes how run-time exploration (A3E) and test generation
need tuples (activity ``a``, GUI object ``v``, event ``e``, handler
``h``) plus the activities those handlers start. Full intent tracking
is out of scope for ALite; the client approximates "handler ``h``
starts activity ``A2``" by: some activity class ``A2`` is instantiated
(``new A2``) in code reachable from ``h`` in the CHA call graph. The
client builds that call graph once per app and walks it once per
distinct handler. This matches the paper's observation that the
handlers — often outside the activity class — are where transitions
originate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.results import AnalysisResult, GuiTuple
from repro.gcpause import gc_paused
from repro.hierarchy.callgraph import build_call_graph
from repro.ir.program import MethodSig
from repro.ir.statements import New


@dataclass(frozen=True)
class Transition:
    """``source`` activity can start ``target`` via ``trigger``."""

    source: str
    target: str
    trigger: GuiTuple


@dataclass
class ActivityTransitionGraph:
    """Nodes are activity classes, edges are handler-driven launches."""

    activities: List[str] = field(default_factory=list)
    transitions: List[Transition] = field(default_factory=list)
    tuples: List[GuiTuple] = field(default_factory=list)

    def successors(self, activity: str) -> Set[str]:
        return {t.target for t in self.transitions if t.source == activity}

    def edge_count(self) -> int:
        return len(self.transitions)

    def to_dot(self) -> str:
        lines = ["digraph transitions {"]
        for activity in self.activities:
            simple = activity.rsplit(".", 1)[-1]
            lines.append(f'  "{simple}";')
        seen: Set[Tuple[str, str, str]] = set()
        for t in self.transitions:
            src = t.source.rsplit(".", 1)[-1]
            dst = t.target.rsplit(".", 1)[-1]
            label = f"{t.trigger.event.value} on {t.trigger.view}"
            key = (src, dst, label)
            if key in seen:
                continue
            seen.add(key)
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


@gc_paused()
def build_transition_graph(result: AnalysisResult) -> ActivityTransitionGraph:
    """Build the transition graph from a solved analysis."""
    program = result.app.program
    activity_classes = set(result.app.activity_classes(result.hierarchy))
    graph = ActivityTransitionGraph(activities=sorted(activity_classes))
    graph.tuples = sorted(result.gui_tuples(), key=str)
    call_graph = build_call_graph(program, result.hierarchy)
    started: Dict[MethodSig, List[str]] = {}
    for gui_tuple in graph.tuples:
        handler = gui_tuple.handler
        if handler not in started:
            targets: Set[str] = set()
            for sig in call_graph.reachable_from([handler]):
                method = program.method(sig.class_name, sig.name, sig.arity)
                if method is None:
                    continue
                for stmt in method.body:
                    if isinstance(stmt, New) and stmt.class_name in activity_classes:
                        targets.add(stmt.class_name)
            started[handler] = sorted(targets)
        for target in started[handler]:
            graph.transitions.append(
                Transition(gui_tuple.activity_class, target, gui_tuple)
            )
    return graph
