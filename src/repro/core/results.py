"""Query API over a computed analysis solution.

Wraps the raw ``flowsTo`` sets and relationship edges in the queries
downstream clients need: what flows to a variable, which listeners
handle events on a view, the (activity, view, event, handler) tuples
Section 6 describes as input to test generation, and hierarchy dumps.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.graph import ConstraintGraph, NodeSet, RelKind
from repro.core.nodes import (
    InflViewNode,
    MenuItemNode,
    Node,
    OpArg,
    OpNode,
    OpRecv,
    ValueNode,
    value_class_name,
    value_is_a,
)
from repro.hierarchy.cha import ClassHierarchy
from repro.ir.program import MethodSig
from repro.platform.api import OpKind
from repro.platform.events import EventKind, ListenerSpec, spec_for_interface

if TYPE_CHECKING:  # pragma: no cover
    from repro.app import AndroidApp
    from repro.core.analysis import AnalysisOptions
    from repro.core.builder import CastSite, InvokeSite
    from repro.core.provenance import FactOrder


class PointsTo(Mapping):
    """The solved ``flowsTo`` sets: node -> the values flowing to it.

    A read-only view over the solver's table of node ids -> value ids.
    A key may be any node equal to an interned one (such as a fresh
    ``OpRecv(op)``); each value is a :class:`~repro.core.graph.NodeSet`
    that decodes value ids as it is iterated. No node-keyed copy of the
    solution is ever built.
    """

    __slots__ = ("_graph", "by_id")

    def __init__(self, graph: ConstraintGraph, by_id: Dict[int, Set[int]]) -> None:
        self._graph = graph
        # The solver's table itself: node id -> value ids. Read-only.
        self.by_id = by_id

    def __getitem__(self, node: Node) -> NodeSet:
        values = self.by_id.get(self._graph.id_of(node))
        if values is None:
            raise KeyError(node)
        return NodeSet(self._graph, values)

    def get(self, node: Node, default=None):
        values = self.by_id.get(self._graph.id_of(node))
        return default if values is None else NodeSet(self._graph, values)

    def __contains__(self, node: object) -> bool:
        return self._graph.id_of(node) in self.by_id

    def __iter__(self) -> Iterator[Node]:
        nodes = self._graph.node_list
        return (nodes[i] for i in self.by_id)

    def __len__(self) -> int:
        return len(self.by_id)

    def items(self) -> Iterator[Tuple[Node, NodeSet]]:
        graph = self._graph
        nodes = graph.node_list
        return ((nodes[i], NodeSet(graph, values)) for i, values in self.by_id.items())

    def values(self) -> Iterator[NodeSet]:
        graph = self._graph
        return (NodeSet(graph, values) for values in self.by_id.values())

    def holds(self, node: Node, value: Node) -> bool:
        """Does ``value`` flow to ``node``? Decodes nothing."""
        id_of = self._graph.id_of
        values = self.by_id.get(id_of(node))
        return values is not None and id_of(value) in values


@dataclass(frozen=True)
class XmlHandlerBinding:
    """An ``android:onClick`` binding discovered during solving."""

    activity_class: str
    view: InflViewNode
    handler: MethodSig


@dataclass(frozen=True)
class GuiTuple:
    """One (activity, view, event, handler) tuple (Section 6).

    ``view`` is the abstract view (inflated or allocated) visible when
    ``activity_class`` is active; ``event`` occurring on it is handled
    by method ``handler``.
    """

    activity_class: str
    view: ValueNode
    event: EventKind
    handler: MethodSig


@dataclass
class AnalysisResult:
    """The full solution of one analysis run."""

    app: "AndroidApp"
    graph: ConstraintGraph
    hierarchy: ClassHierarchy
    pts: PointsTo
    options: "AnalysisOptions"
    rounds: int
    solve_seconds: float
    xml_handlers: List[XmlHandlerBinding] = field(default_factory=list)
    # Menu items inflated per (activity) class — menu extension.
    menu_items_by_class: Dict[str, List["MenuItemNode"]] = field(default_factory=dict)
    # False when the solver hit ``AnalysisOptions.max_rounds`` before
    # reaching the fixed point (the solution may be incomplete).
    converged: bool = True
    # Solver-effort stats (maintained with or without profiling):
    # total insertions into ``pts`` and worklist entries drained.
    values_added: int = 0
    work_items: int = 0
    # Which fixed-point scheduler produced this solution, and how many
    # rule evaluations it ran vs. proved unnecessary (see
    # docs/ALGORITHM.md, "Semi-naive scheduling").
    solver: str = "seminaive"
    ops_scheduled: int = 0
    ops_skipped: int = 0
    # Fact order table filled when ``AnalysisOptions.provenance`` was
    # enabled for the run; None otherwise. The witness-path
    # reconstructor (repro.lint.witness) ranks premises by it.
    provenance: Optional["FactOrder"] = None
    # The builder's site tables (see repro.core.builder.BuildResult), in
    # program order: every (caller, index, Invoke, target sigs) and every
    # (caller, index, Cast). Clients read these instead of walking method
    # bodies; the invoke table is the app's CHA call graph.
    invoke_sites: List["InvokeSite"] = field(default_factory=list)
    cast_sites: List["CastSite"] = field(default_factory=list)
    # With ``AnalysisOptions.call_site_context``: each method analyzed
    # once per calling site -> its context sigs, in calling-site order.
    contexts: Dict[MethodSig, List[MethodSig]] = field(default_factory=dict)

    # -- flowsTo queries ----------------------------------------------------

    def values_at(self, node: Node) -> Set[ValueNode]:
        """All abstract values flowing to ``node``."""
        return set(self.pts.get(node, ()))

    def values_at_var(
        self, class_name: str, method_name: str, arity: int, var: str
    ) -> Set[ValueNode]:
        """Values flowing to local ``var`` of the named method."""
        sig = MethodSig(class_name, method_name, arity)
        node = self.graph.lookup_var(sig, var)
        if node is None:
            return set()
        return self.values_at(node)

    def views_at_var(
        self, class_name: str, method_name: str, arity: int, var: str
    ) -> Set[ValueNode]:
        return {
            v
            for v in self.values_at_var(class_name, method_name, arity, var)
            if self.is_view_value(v)
        }

    def is_view_value(self, value: ValueNode) -> bool:
        return self.graph.is_view_value(value)

    # -- operation-node queries (the paper's precision measurements) ----------

    def op_receivers(self, op: OpNode) -> Set[ValueNode]:
        """Views (or activities, for FindView2/Inflate2) at the receiver."""
        return self.values_at(OpRecv(op))

    def op_view_receivers(self, op: OpNode) -> Set[ValueNode]:
        return {v for v in self.op_receivers(op) if self.is_view_value(v)}

    def op_args(self, op: OpNode) -> Set[ValueNode]:
        return self.values_at(OpArg(op, 0))

    def op_view_args(self, op: OpNode) -> Set[ValueNode]:
        return {v for v in self.op_args(op) if self.is_view_value(v)}

    def op_results(self, op: OpNode) -> Set[ValueNode]:
        """Views output by a FindView/Inflate1 operation node."""
        return self.values_at(op)

    def op_listener_args(self, op: OpNode) -> Set[ValueNode]:
        spec = self.graph.op_spec(op).listener
        if spec is None:
            return set()
        return {v for v in self.op_args(op) if value_is_a(self.hierarchy, v, spec.interface)}

    def ops_of_kind(self, *kinds: OpKind) -> List[OpNode]:
        return [op for op in self.graph.ops() if op.kind in kinds]

    # -- structural queries --------------------------------------------------

    def listeners_of(self, view: ValueNode) -> Set[ValueNode]:
        return self.graph.rel(RelKind.LISTENER, view)  # type: ignore[return-value]

    def roots_of_activity(self, activity_class: str) -> Set[ValueNode]:
        act = self.graph.lookup_activity(activity_class)
        if act is None:
            return set()
        return self.graph.rel(RelKind.ROOT, act)  # type: ignore[return-value]

    def activity_views(self, activity_class: str) -> Set[ValueNode]:
        """All views in hierarchies associated with the activity."""
        views: Set[ValueNode] = set()
        for root in self.roots_of_activity(activity_class):
            views.update(self.graph.descendants_of(root))  # type: ignore[arg-type]
        return views

    def handlers_for_view(
        self, view: ValueNode
    ) -> List[Tuple[EventKind, MethodSig]]:
        """Event handlers registered on ``view`` via set-listener calls."""
        handlers: List[Tuple[EventKind, MethodSig]] = []
        for listener in self.listeners_of(view):
            class_name = value_class_name(listener)
            if class_name is None:
                continue
            for interface in self.hierarchy.listener_interfaces_of(class_name):
                spec = spec_for_interface(interface)
                if spec is None:
                    continue
                method = self.hierarchy.lookup(
                    class_name, spec.handler, spec.handler_arity
                )
                if method is None:
                    continue
                owner = self.app.program.clazz(method.class_name)
                if owner is None or owner.is_platform:
                    continue
                handlers.append((spec.event, method.sig))
        return handlers

    def gui_tuples(self) -> Set[GuiTuple]:
        """The (activity, view, event, handler) tuples of Section 6."""
        tuples: Set[GuiTuple] = set()
        for act in self.graph.activities():
            for view in self.activity_views(act.class_name):
                for event, handler in self.handlers_for_view(view):
                    tuples.add(GuiTuple(act.class_name, view, event, handler))
        for binding in self.xml_handlers:
            tuples.add(
                GuiTuple(
                    binding.activity_class,
                    binding.view,
                    EventKind.CLICK,
                    binding.handler,
                )
            )
        return tuples

    # -- rendering -------------------------------------------------------------

    def menu_items_of(self, class_name: str) -> List["MenuItemNode"]:
        """Menu items inflated by methods of ``class_name`` (extension)."""
        return list(self.menu_items_by_class.get(class_name, ()))

    def hierarchy_dump(self, activity_class: str) -> str:
        """Indented dump of the activity's view hierarchies."""
        lines: List[str] = [activity_class]
        for root in sorted(self.roots_of_activity(activity_class), key=str):
            self._dump_view(root, 1, lines, set())
        return "\n".join(lines)

    def _dump_view(
        self, view: ValueNode, depth: int, lines: List[str], seen: Set[ValueNode]
    ) -> None:
        marker = " (revisited)" if view in seen else ""
        ids = ",".join(sorted(str(i) for i in self.graph.ids_of(view)))
        id_part = f" [{ids}]" if ids else ""
        listener_count = len(self.listeners_of(view))
        listener_part = f" listeners={listener_count}" if listener_count else ""
        lines.append("  " * depth + f"{view}{id_part}{listener_part}{marker}")
        if view in seen:
            return
        seen.add(view)
        for child in sorted(self.graph.children_of(view), key=str):
            self._dump_view(child, depth + 1, lines, seen)  # type: ignore[arg-type]
