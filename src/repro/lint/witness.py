"""Witness paths rebuilt from a solved analysis.

Any fact of a solution — a ``flowsTo`` pair, a relationship edge, or a
flow edge the solver made — is explained after solving by searching
backwards over the final solution (the static path reconstruction of
*Mind the GAPS*). The solver only numbers each fact in the order it was
first added (:class:`~repro.core.provenance.FactOrder`).

One explainer per kind of derivation lists a fact's candidates from the
final points-to sets, relationship edges and flow edges: ``Seed``,
``Assign`` over the reverse flow adjacency, one per
:class:`~repro.platform.api.OpKind` (agreeing with that op's rule in
``GuiReferenceAnalysis._RULES``), ``XmlOnClick`` and factory callbacks.
A candidate counts only when every premise is numbered below the
conclusion (flow edges from program statements are axioms and rank
lowest): numbers strictly fall along a witness, so none rests on
itself, and the first derivation always counts. Among those the least
content key (rule name, then rendered premises) wins, never the order
number, so both solvers pick the same witness when they accept the
same candidates (rule tables in ``docs/ALGORITHM.md``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.graph import RelKind
from repro.core.nodes import ActivityNode, InflViewNode, MenuItemNode, Node, OpArg, OpNode
from repro.core.nodes import OpRecv, VarNode, ViewIdNode, is_activity_like, value_class_name
from repro.core.nodes import value_is_a
from repro.core.provenance import EDGE, FLOW, REL, Fact, edge_fact, flow_fact, rel_fact
from repro.core.results import AnalysisResult
from repro.ir.statements import Return
from repro.platform.api import OpKind

# A derivation: (rule name, premise facts).
Premises = Tuple[Fact, ...]
Derivation = Tuple[str, Premises]

CHILD, HAS_ID, ROOT = RelKind.CHILD, RelKind.HAS_ID, RelKind.ROOT
# Ops whose rule calls a view factory on the value at one argument:
# kind -> (argument index, the value's base class, factory method).
_FACTORIES = {
    OpKind.FRAGMENT_TX: (1, "android.app.Fragment", "onCreateView"),
    OpKind.SET_ADAPTER: (0, "android.widget.BaseAdapter", "getView"),
}


@dataclass(frozen=True)
class WitnessStep:
    """One step of a witness path: ``fact``, the rule deriving it (None
    for axioms) and the premises the rule consumed."""

    fact: Fact
    rule: Optional[str]
    premises: Tuple[Fact, ...] = ()

    @property
    def is_axiom(self) -> bool:
        return self.rule is None


def render_fact(fact: Fact) -> str:
    """Human syntax for a fact, matching the paper's notation."""
    tag = fact[0]
    if tag == FLOW:
        # ("flow", node, value) is the paper's flowsTo(value, node).
        return f"flowsTo({fact[2]}, {fact[1]})"
    if tag == REL:
        kind = getattr(fact[1], "value", fact[1])
        return f"rel[{kind}]({fact[2]} => {fact[3]})"
    if tag == EDGE:
        return f"flowEdge({fact[1]} -> {fact[2]})"
    return str(fact)


def render_step(step: WitnessStep) -> str:
    head = render_fact(step.fact)
    if step.is_axiom:
        return f"{head}  [axiom]"
    if not step.premises:
        return f"{head}  <= {step.rule}"
    premises = "; ".join(render_fact(p) for p in step.premises)
    return f"{head}  <= {step.rule}({premises})"


class Explainer:
    """Rebuilds derivations of the facts of one solved analysis.

    ``result`` must come from a run with ``AnalysisOptions.provenance``
    (its ``provenance`` is the fact order table). Chosen derivations
    are memoised, so one explainer serves many witnesses.
    """

    def __init__(self, result: AnalysisResult) -> None:
        if result.provenance is None:
            raise ValueError("witnesses need AnalysisOptions(provenance=True)")
        self.result, self.graph, self.pts = result, result.graph, result.pts
        self.hierarchy, self.order = result.hierarchy, result.provenance
        self.ops: Dict[OpKind, List[OpNode]] = {}
        for op in self.graph.ops():
            self.ops.setdefault(op.kind, []).append(op)
        self._memo: Dict[Fact, Optional[Derivation]] = {}
        self._is_view = self.graph.is_view_value
        # The graph keeps successors only; ``Assign`` needs predecessors.
        # Over node ids, like the graph's successor map it inverts.
        self._flow_pred: Dict[int, List[int]] = {}
        for src, out in self.graph.flow.items():
            for dst in out:
                preds = self._flow_pred.get(dst)
                if preds is None:
                    self._flow_pred[dst] = [src]
                else:
                    preds.append(src)

    def rank(self, fact: Fact) -> Optional[int]:
        """The order number of ``fact``: -1 for a flow edge from a
        program statement, None when ``fact`` does not hold."""
        number = self.order.of(fact)
        if number is None and fact[0] == EDGE and self.graph.has_flow(fact[1], fact[2]):
            return -1
        return number

    def derivation(self, fact: Fact) -> Optional[Derivation]:
        """The least-keyed candidate derivation of ``fact`` whose
        premises all rank below it; None for an axiom."""
        if fact in self._memo:
            return self._memo[fact]
        best: Optional[Derivation] = None
        limit = self.rank(fact)
        if limit is not None and limit >= 0:
            explain = {FLOW: self._flow, REL: self._rel, EDGE: self._edge}[fact[0]]
            best_key = None
            for rule, premises in explain(*fact[1:], limit):
                if all((r := self.rank(p)) is not None and r < limit for p in premises):
                    key = (rule, [render_fact(p) for p in premises])
                    if best_key is None or key < best_key:
                        best, best_key = (rule, premises), key
        self._memo[fact] = best
        return best

    def witness(self, fact: Fact, max_steps: int = 200) -> List[WitnessStep]:
        """Derivation steps for ``fact``, premises-first, ``fact`` last.

        Iterative postorder DFS over the premise DAG. Ranks rule out
        cycles, but a cycle guard keeps a faulty explainer from hanging
        the renderer. ``max_steps`` truncates long derivations; the
        explained fact is always the final step.
        """
        steps: List[WitnessStep] = []
        emitted: Dict[Fact, None] = {}
        # (fact, expanded?) — expanded means premises already pushed.
        stack: List[Tuple[Fact, bool]] = [(fact, False)]
        on_path: Dict[Fact, None] = {}
        while stack:
            current, expanded = stack.pop()
            if expanded:
                on_path.pop(current, None)
                if current not in emitted:
                    emitted[current] = None
                    derivation = self.derivation(current)
                    steps.append(WitnessStep(current, *(derivation or (None,))))
                continue
            if current in emitted or current in on_path:
                continue
            on_path[current] = None
            stack.append((current, True))
            derivation = self.derivation(current)
            if derivation is not None and len(steps) < max_steps:
                # Reversed so premises pop (and emit) in order.
                stack.extend((p, False) for p in reversed(derivation[1]))
        if len(steps) > max_steps:
            # Keep the head of the derivation and the conclusion.
            steps = steps[: max_steps - 1] + [steps[-1]]
        return steps

    # -- reading the solution (as the solver's rules do) -----------------------

    def _holds(self, node: Node, value: Node) -> bool:
        return self.pts.holds(node, value)

    def _values(self, node: Node, pred) -> List[Node]:
        return [v for v in self.pts.get(node, ()) if pred(v)]

    def _is_a(self, value: Node, class_name: str) -> bool:
        return value_is_a(self.hierarchy, value, class_name)

    def _is_activity_like(self, value: Node) -> bool:
        return is_activity_like(self.hierarchy, value)

    def _factory_views(self, op: OpNode, view: Node) -> Iterator[Premises]:
        """Premises that ``view`` is returned by the view factory of a
        value at ``op``'s factory argument (see ``_FACTORIES``)."""
        index, base, factory = _FACTORIES[op.kind]
        arg = OpArg(op, index)
        for value in self._values(arg, lambda v: self._is_a(v, base)):
            method = self.hierarchy.app_callback(value_class_name(value), factory, (0, 3))
            for stmt in method.body if method is not None else ():
                if isinstance(stmt, Return):
                    ret = self.graph.lookup_var(method.sig, stmt.var)
                    if ret is not None and self._holds(ret, view):
                        yield flow_fact(arg, value), flow_fact(ret, view)

    def _passes(self, type_filter: Optional[str], value: Node) -> bool:
        """Does ``value`` pass a flow edge with cast filter ``type_filter``?"""
        if type_filter is None or not self.result.options.filter_casts:
            return True
        return value_class_name(value) is None or self._is_a(value, type_filter)

    # -- shared premise shapes -------------------------------------------------

    def _chain(self, start: Node, target: Node, limit: int) -> Optional[Premises]:
        """CHILD facts of a shortest ``start ->* target`` path over edges
        ranked below ``limit`` (BFS, children in ``str`` order)."""
        parent: Dict[Node, Node] = {start: start}
        queue, ranks = deque([start]), self.order.rel
        while queue and target not in parent:
            node = queue.popleft()
            for child in sorted(self.graph.rel_view(CHILD, node), key=str):
                if child not in parent and ranks.get((CHILD, node, child), limit) < limit:
                    parent[child] = node
                    queue.append(child)
        if target not in parent:
            return None
        chain: List[Fact] = []
        while target != start:
            chain.insert(0, rel_fact(CHILD, parent[target], target))
            target = parent[target]
        return tuple(chain)

    def _lookups(self, op: OpNode, target: Node, limit: int, via_root: bool) -> Iterator[Premises]:
        """Premises of ``find(starts, ids)`` reaching ``target``: the starts
        are the receiver's views (FindView1) or the roots of its
        activity-like values (FindView2, FragmentTx containers), the ids
        those of the first argument."""
        recv, arg = OpRecv(op), OpArg(op, 0)
        ids = self._values(
            arg, lambda v: isinstance(v, ViewIdNode) and self.graph.has_rel(HAS_ID, target, v)
        )
        if via_root:
            starts = [
                ((flow_fact(recv, holder), rel_fact(ROOT, holder, root)), root)
                for holder in self._values(recv, self._is_activity_like)
                for root in self.graph.rel_view(ROOT, holder)
            ]
        else:
            starts = [((flow_fact(recv, v),), v) for v in self._values(recv, self._is_view)]
        for head, start in starts if ids else ():
            chain = self._chain(start, target, limit)
            for id_node in ids if chain is not None else ():
                yield head + (flow_fact(arg, id_node),) + chain + (rel_fact(HAS_ID, target, id_node),)

    def _inflated(self, view: InflViewNode) -> Derivation:
        """Everything a layout instantiation creates rests on the layout
        id reaching the inflating op's argument."""
        op = self.graph.op_at(view.op_site)
        layout = self.graph.lookup_layout_id(view.layout)
        return op.kind.value, (flow_fact(OpArg(op, 0), layout),)

    def _menu_item(self, item: MenuItemNode) -> Derivation:
        op = self.graph.op_at(item.op_site)
        menu = next(m for m in self.graph.menu_id_nodes() if m.name == item.menu)
        return op.kind.value, (flow_fact(OpArg(op, 0), menu),)

    def _pairs(self, kind: OpKind, held: Node, passed: Node, pred=None) -> Iterator[Derivation]:
        """Ops of ``kind`` whose receiver holds ``held`` and whose first
        argument holds ``passed``."""
        for op in self.ops.get(kind, ()):
            recv, arg = OpRecv(op), OpArg(op, 0)
            if self._holds(recv, held) and self._holds(arg, passed) and (pred is None or pred(op)):
                yield kind.value, (flow_fact(recv, held), flow_fact(arg, passed))

    def _xml_binding(self, act: Node, view: Node, limit: int) -> Iterator[Derivation]:
        """``android:onClick``: ``view`` is reachable from a root of ``act``."""
        for root in self.graph.rel_view(ROOT, act):
            chain = self._chain(root, view, limit)
            if chain is not None:
                head = (flow_fact(act, act), rel_fact(ROOT, act, root))
                yield "XmlOnClick", head + chain + (flow_fact(view, view),)

    # -- explainers, one per kind of fact --------------------------------------

    def _flow(self, node: Node, value: Node, limit: int) -> Iterator[Derivation]:
        if node == value:
            if isinstance(value, InflViewNode):
                yield self._inflated(value)
            elif isinstance(value, MenuItemNode):
                yield self._menu_item(value)
            else:
                yield "Seed", ()
        graph, by_id = self.graph, self.pts.by_id
        dst, held = graph.id_of(node), graph.id_of(value)
        for pred in self._flow_pred.get(dst, ()):
            if held in by_id.get(pred, ()) and self._passes(graph.flow[pred][dst], value):
                src = graph.node_list[pred]
                yield "Assign", (flow_fact(src, value), edge_fact(src, node))
        if isinstance(node, OpNode):
            yield from self._op_output(node, value, limit)
        elif isinstance(node, VarNode) and node.name == "this" and isinstance(value, ActivityNode):
            for binding in self.result.xml_handlers:
                if binding.activity_class == value.class_name and binding.handler == node.method:
                    yield from self._xml_binding(value, binding.view, limit)

    def _op_output(self, op: OpNode, value: Node, limit: int) -> Iterator[Derivation]:
        """Values flowing out of an op node."""
        kind, rule, recv = op.kind, op.kind.value, OpRecv(op)
        if kind is OpKind.INFLATE1:
            if isinstance(value, InflViewNode) and value.op_site == op.site and not value.path:
                yield self._inflated(value)
        elif kind is OpKind.FINDVIEW1 or kind is OpKind.FINDVIEW2:
            for premises in self._lookups(op, value, limit, kind is OpKind.FINDVIEW2):
                yield rule, premises
        elif kind is OpKind.FINDVIEW3:
            children_only = (
                self.graph.op_spec(op).children_only
                and self.result.options.findview3_children_only_refinement
            )
            for view in self._values(recv, self._is_view):
                # The shortest path is a single edge whenever one qualifies.
                chain = self._chain(view, value, limit)
                if chain is not None and (len(chain) == 1 or not children_only):
                    yield rule, (flow_fact(recv, view),) + chain
        elif kind is OpKind.GETPARENT:
            for child in self._values(recv, self._is_view):
                if self.graph.has_rel(CHILD, value, child):
                    yield rule, (flow_fact(recv, child), rel_fact(CHILD, value, child))
        elif kind is OpKind.FRAGMENT_MGR:
            if self._holds(recv, value) and self._is_activity_like(value):
                yield rule, (flow_fact(recv, value),)

    def _rel(self, kind: RelKind, src: Node, dst: Node, limit: int) -> Iterator[Derivation]:
        if isinstance(src, InflViewNode) and (
            kind is RelKind.INFL_ROOT
            or kind is RelKind.LAYOUT_ORIGIN
            or (kind is HAS_ID and src.id_name == getattr(dst, "name", None))
        ):
            yield self._inflated(src)
        if kind is HAS_ID:
            if isinstance(src, MenuItemNode) and src.id_name == getattr(dst, "name", None):
                yield self._menu_item(src)
            if self._is_view(src):
                yield from self._pairs(OpKind.SETID, src, dst)
        elif kind is ROOT and self._is_activity_like(src):
            if isinstance(dst, InflViewNode) and not dst.path:
                rule, layout_premise = self._inflated(dst)
                recv = OpRecv(self.graph.op_at(dst.op_site))
                if rule == OpKind.INFLATE2.value and self._holds(recv, src):
                    yield rule, (flow_fact(recv, src),) + layout_premise
            if self._is_view(dst):
                yield from self._pairs(OpKind.ADDVIEW1, src, dst)
        elif kind is RelKind.LISTENER and self._is_view(src):
            yield from self._pairs(
                OpKind.SETLISTENER, src, dst,
                lambda op: self._is_a(dst, self.graph.op_spec(op).listener.interface),
            )
        elif kind is CHILD and src != dst and self._is_view(dst):
            yield from self._child(src, dst, limit)

    def _child(self, src: Node, dst: Node, limit: int) -> Iterator[Derivation]:
        if isinstance(src, InflViewNode) and isinstance(dst, InflViewNode) and dst.path:
            if (dst.op_site, dst.layout, dst.path[:-1]) == (src.op_site, src.layout, src.path):
                yield self._inflated(src)
        if self._is_view(src):
            yield from self._pairs(OpKind.ADDVIEW2, src, dst)
            for op in self.ops.get(OpKind.SET_ADAPTER, ()):
                recv = OpRecv(op)
                for returned in self._factory_views(op, dst) if self._holds(recv, src) else ():
                    yield op.kind.value, (flow_fact(recv, src),) + returned
        for op in self.ops.get(OpKind.FRAGMENT_TX, ()):
            for returned in self._factory_views(op, dst):
                for premises in self._lookups(op, src, limit, True):
                    yield op.kind.value, premises + returned

    def _edge(self, src: Node, dst: Node, limit: int) -> Iterator[Derivation]:
        """Flow edges the solver made: listener and factory callbacks,
        menu and ``android:onClick`` handlers."""
        if not isinstance(dst, VarNode):
            return
        sig = dst.method
        for op in self.ops.get(OpKind.SETLISTENER, ()):
            spec = self.graph.op_spec(op).listener
            if spec is None or spec.handler != sig.name:
                continue
            recv, arg, rule = OpRecv(op), OpArg(op, 0), op.kind.value
            for listener in self._values(arg, lambda v: self._is_a(v, spec.interface)):
                handler = self.hierarchy.app_callback(
                    value_class_name(listener), spec.handler, (spec.handler_arity,)
                )
                if handler is None or handler.sig != sig:
                    continue
                params, uses = handler.param_names, flow_fact(arg, listener)
                is_param = lambda i: i is not None and i < len(params) and dst.name == params[i]
                if dst.name == "this" and src == listener:
                    yield rule, (uses,)
                if is_param(spec.view_param_index) and self._holds(recv, src) and self._is_view(src):
                    yield rule, (flow_fact(recv, src), uses)
                # AdapterView families: a child of the view is the clicked row.
                for view in self._values(recv, self._is_view) if is_param(spec.item_param_index) else ():
                    if self.graph.has_rel(CHILD, view, src):
                        yield rule, (flow_fact(recv, view), uses, rel_fact(CHILD, view, src))
        for kind, (index, base, factory) in _FACTORIES.items():
            method = self.hierarchy.app_callback(value_class_name(src), factory, (0, 3))
            if method is not None and method.sig == sig and dst.name == "this" and self._is_a(src, base):
                for op in self.ops.get(kind, ()):
                    if self._holds(OpArg(op, index), src):
                        yield kind.value, (flow_fact(OpArg(op, index), src),)
        if isinstance(src, MenuItemNode):
            item = self.result.app.resources.menu(src.menu).items[src.index]
            for name in (item.on_click, "onOptionsItemSelected"):
                method = self.hierarchy.app_callback(src.op_site.method.class_name, name, (1,))
                if method is not None and method.sig == sig and dst.name == method.param_names[0]:
                    yield OpKind.MENU_INFLATE.value, (flow_fact(src, src),)
        if isinstance(src, InflViewNode) and dst.name != "this":
            # A bound handler has one parameter, the clicked view.
            for binding in self.result.xml_handlers:
                if binding.view == src and binding.handler == sig:
                    act = self.graph.activity(binding.activity_class)
                    yield from self._xml_binding(act, src, limit)


def reconstruct_witness(
    result: AnalysisResult,
    fact: Fact,
    max_steps: int = 200,
    explainer: Optional[Explainer] = None,
) -> List[WitnessStep]:
    """Derivation steps for ``fact`` of a provenance-enabled ``result``,
    premises first, ``fact`` last (see :meth:`Explainer.witness`).
    Pass one ``explainer`` for many facts of ``result`` to share its
    memo."""
    return (explainer or Explainer(result)).witness(fact, max_steps)


def render_witness(steps: List[WitnessStep]) -> List[str]:
    """Render steps as numbered lines (sources first, conclusion last)."""
    return [
        f"  {i}. {render_step(step)}" for i, step in enumerate(steps, start=1)
    ]
