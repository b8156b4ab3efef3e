"""Dynamic-fact traces and the soundness check against a static solution.

Every executed GUI operation is recorded as an :class:`OpEvent` with
the creation tags of its receiver, argument, and result. The soundness
check maps each tag to its static abstraction and asserts containment
in the corresponding ``flowsTo`` set — the static analysis must
over-approximate every observed run-time behaviour.

The interpreter runs the original program, so under call-site contexts
(``AnalysisOptions.call_site_context``) a site of a method analyzed per
calling site stands for the original site and its copy in each
context: an event's operation and a tag's abstraction are each the set
of those copies, and a fact holds when some value copy is in the set
of some operation copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.nodes import Node, OpArg, OpNode, OpRecv, Site, ValueNode
from repro.core.results import AnalysisResult
from repro.semantics.values import (
    ActivityTag,
    AllocTag,
    CreationTag,
    FrameworkTag,
    InflTag,
    MenuItemTag,
)


@dataclass(frozen=True)
class OpEvent:
    """One executed operation: site plus participating object tags."""

    kind: str
    site: Site
    receiver: Optional[CreationTag] = None
    argument: Optional[CreationTag] = None
    result: Optional[CreationTag] = None


@dataclass
class Trace:
    """All dynamic facts of one run."""

    events: List[OpEvent] = field(default_factory=list)
    handler_invocations: List[str] = field(default_factory=list)

    def record(self, event: OpEvent) -> None:
        self.events.append(event)


class TagIndex:
    """A solved graph's nodes keyed by what the interpreter records: each
    value node under the creation tag it abstracts, each op under its
    site. A node of a call-site context is keyed by the original site,
    so a key lists the original's node and its context copies, in
    graph order. Built once per check; it never adds a node."""

    def __init__(self, result: AnalysisResult) -> None:
        graph = self.graph = result.graph
        origin = {
            context: sig for sig, contexts in result.contexts.items() for context in contexts
        }

        def original(site: Site) -> Site:
            sig = origin.get(site.method)
            return site if sig is None else Site(sig, site.index, site.line)

        self._values: Dict[CreationTag, List[ValueNode]] = {}
        for alloc in graph.allocs():
            self._values.setdefault(AllocTag(original(alloc.site)), []).append(alloc)
        for infl in graph.infl_view_nodes():
            tag = InflTag(original(infl.op_site), infl.layout, infl.path)
            self._values.setdefault(tag, []).append(infl)
        for item in graph.menu_item_nodes():
            tag = MenuItemTag(original(item.op_site), item.menu, item.index)
            self._values.setdefault(tag, []).append(item)
        self._ops: Dict[Site, List[OpNode]] = {}
        for op in graph.ops():
            self._ops.setdefault(original(op.site), []).append(op)

    def values(self, tag: CreationTag) -> List[ValueNode]:
        """Every abstraction of ``tag``; empty when there is none."""
        if isinstance(tag, ActivityTag):
            activity = self.graph.lookup_activity(tag.class_name)
            return [] if activity is None else [activity]
        return self._values.get(tag, [])

    def ops(self, site: Site) -> List[OpNode]:
        """The op at ``site`` and its context copies."""
        return self._ops.get(site, [])


def tag_to_value(result: AnalysisResult, tag: CreationTag) -> Optional[ValueNode]:
    """Map a runtime creation tag to its static abstraction node; to map
    many tags, build one :class:`TagIndex` instead."""
    values = TagIndex(result).values(tag)
    return values[0] if values else None


@dataclass
class SoundnessReport:
    """Outcome of comparing a trace against a static solution."""

    checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def is_sound(self) -> bool:
        return not self.violations


def _check_membership(
    result: AnalysisResult,
    index: TagIndex,
    nodes: List[Node],
    tag: Optional[CreationTag],
    what: str,
    report: SoundnessReport,
) -> None:
    """Is some abstraction of ``tag`` in the static set of some node
    of ``nodes`` (an op's ports, or the op, and their context copies)?"""
    if tag is None or isinstance(tag, FrameworkTag):
        return  # framework helpers have no static abstraction by design
    values = index.values(tag)
    if not values:
        report.violations.append(f"{what}: no static abstraction for {tag}")
        return
    report.checked += 1
    if not any(value in result.pts.get(node, ()) for node in nodes for value in values):
        report.violations.append(
            f"{what}: dynamic value {values[0]} not in static set at {nodes[0]}"
        )


def check_soundness(result: AnalysisResult, trace: Trace) -> SoundnessReport:
    """Verify the static solution over-approximates the trace.

    For every executed operation at site ``s`` with static operation
    node ``op``: the receiver tag must be in ``flowsTo(OpRecv(op))``,
    the argument tag in ``flowsTo(OpArg(op, 0))``, and the result tag
    in ``flowsTo(op)``. With call-site contexts, ``op`` and each tag's
    abstraction range over their context copies (see the module
    docstring).
    """
    report = SoundnessReport()
    index = TagIndex(result)
    for event in trace.events:
        ops = index.ops(event.site)
        if not ops:
            report.violations.append(
                f"no static operation node at executed site {event.site}"
            )
            continue
        op = ops[0]
        _check_membership(
            result, index, [OpRecv(o) for o in ops], event.receiver, f"{op} receiver", report
        )
        _check_membership(
            result, index, [OpArg(o, 0) for o in ops], event.argument, f"{op} argument", report
        )
        _check_membership(result, index, ops, event.result, f"{op} result", report)
    return report
