"""Phase 1 of the analysis: constraint-graph construction (Section 4.3).

"First, the analysis creates the constraint graph edges that can be
directly inferred from program statements." This module walks every
application method (all are considered executable) and adds:

* flow edges for assignments, casts, field accesses (field-based), and
  id-constant loads;
* allocation nodes for ``new`` statements, categorised into view /
  listener allocations;
* parameter/return flow edges for calls resolved by CHA;
* operation nodes with receiver/argument port edges and output edges
  for call sites classified by the API catalog;
* activity nodes with edges to the ``this`` variables of framework
  callbacks, modelling the platform's implicit ``t := new a; t.m()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.app import AndroidApp
from repro.core.graph import ConstraintGraph
from repro.core.nodes import Site
from repro.hierarchy.cha import ClassHierarchy
from repro.hierarchy.callgraph import resolve_invoke
from repro.ir.program import Method, MethodSig, Program
from repro.ir.statements import (
    Assign,
    BinOp,
    Cast,
    ConstInt,
    ConstLayoutId,
    ConstMenuId,
    ConstNull,
    ConstString,
    ConstViewId,
    Goto,
    If,
    Invoke,
    InvokeKind,
    Label,
    Load,
    New,
    Return,
    StaticLoad,
    StaticStore,
    Store,
    UnaryOp,
)
from repro.obs import names as obs_names
from repro.obs.tracer import Tracer, active as active_tracer
from repro.platform.api import OpKind, OpSpec, classify_invoke, is_framework_callback
from repro.platform.classes import VIEW


@dataclass
class BuildResult:
    """The constructed graph plus side tables the solver needs."""

    graph: ConstraintGraph
    hierarchy: ClassHierarchy
    app: AndroidApp


class _GraphBuilder:
    def __init__(self, app: AndroidApp) -> None:
        self.app = app
        self.program: Program = app.program
        self.hierarchy = ClassHierarchy(self.program)
        self.graph = ConstraintGraph()
        self.result = BuildResult(self.graph, self.hierarchy, app)
        # Return variables per method, for call-return edges.
        self._returns: Dict[MethodSig, List[str]] = {}

    # -- helpers ---------------------------------------------------------------

    def _field_owner(self, start_class: str, field_name: str) -> str:
        """Declaring class of ``field_name`` looked up from ``start_class``.

        Field-based analysis keys field nodes by the declaring class so
        that accesses through different static types of the same object
        share one node.
        """
        for cname in self.hierarchy.superclass_chain(start_class):
            c = self.program.clazz(cname)
            if c is not None and field_name in c.fields:
                return cname
        return start_class

    def _returns_of(self, sig: MethodSig) -> List[str]:
        cached = self._returns.get(sig)
        if cached is not None:
            return cached
        method = self.program.method(sig.class_name, sig.name, sig.arity)
        names: List[str] = []
        if method is not None:
            for stmt in method.body:
                if isinstance(stmt, Return) and stmt.var is not None:
                    names.append(stmt.var)
        self._returns[sig] = names
        return names

    def _is_view_class(self, name: str) -> bool:
        return self.hierarchy.is_subtype(name, VIEW)

    # -- statement translation ---------------------------------------------------

    def build(self, tracer: Optional[Tracer] = None) -> BuildResult:
        methods = 0
        statements = 0
        for method in self.program.application_methods():
            methods += 1
            for index, stmt in enumerate(method.body):
                statements += 1
                self._translate(method, index, stmt)
        self._model_activities()
        if tracer is not None:
            tracer.counter(obs_names.COUNTER_BUILD_METHODS, methods)
            tracer.counter(obs_names.COUNTER_BUILD_STATEMENTS, statements)
            tracer.counter(
                obs_names.COUNTER_BUILD_FLOW_EDGES, self.graph.flow_edge_count()
            )
            tracer.counter(obs_names.COUNTER_BUILD_OPS, len(self.graph.ops()))
        return self.result

    def _translate(self, method: Method, index: int, stmt) -> None:
        g = self.graph
        sig = method.sig
        if isinstance(stmt, Assign):
            g.add_flow(g.var(sig, stmt.rhs), g.var(sig, stmt.lhs))
        elif isinstance(stmt, Cast):
            g.add_flow(
                g.var(sig, stmt.rhs), g.var(sig, stmt.lhs), type_filter=stmt.type_name
            )
        elif isinstance(stmt, New):
            site = Site(sig, index, stmt.line)
            alloc = g.alloc(
                site,
                stmt.class_name,
                is_view=self._is_view_class(stmt.class_name),
                is_listener=self.hierarchy.is_listener_class(stmt.class_name),
            )
            g.add_flow(alloc, g.var(sig, stmt.lhs))
        elif isinstance(stmt, Load):
            base_type = method.locals[stmt.base].type_name
            owner = self._field_owner(base_type, stmt.field_name)
            g.add_flow(g.field(owner, stmt.field_name), g.var(sig, stmt.lhs))
        elif isinstance(stmt, Store):
            base_type = method.locals[stmt.base].type_name
            owner = self._field_owner(base_type, stmt.field_name)
            g.add_flow(g.var(sig, stmt.rhs), g.field(owner, stmt.field_name))
        elif isinstance(stmt, StaticLoad):
            g.add_flow(
                g.static_field(stmt.class_name, stmt.field_name), g.var(sig, stmt.lhs)
            )
        elif isinstance(stmt, StaticStore):
            g.add_flow(
                g.var(sig, stmt.rhs), g.static_field(stmt.class_name, stmt.field_name)
            )
        elif isinstance(stmt, ConstLayoutId):
            value = self.app.resources.layout_id(stmt.layout_name)
            g.add_flow(g.layout_id(stmt.layout_name, value), g.var(sig, stmt.lhs))
        elif isinstance(stmt, ConstViewId):
            value = self.app.resources.view_id(stmt.id_name)
            g.add_flow(g.view_id(stmt.id_name, value), g.var(sig, stmt.lhs))
        elif isinstance(stmt, ConstMenuId):
            value = self.app.resources.menu_id(stmt.menu_name)
            g.add_flow(g.menu_id(stmt.menu_name, value), g.var(sig, stmt.lhs))
        elif isinstance(stmt, ConstInt):
            # Raw integers that coincide with R constants behave as ids
            # (apps occasionally pass the literal value around).
            layout_name = self.app.resources.layout_name_of(stmt.value)
            if layout_name is not None:
                g.add_flow(
                    g.layout_id(layout_name, stmt.value), g.var(sig, stmt.lhs)
                )
            id_name = self.app.resources.view_id_name_of(stmt.value)
            if id_name is not None:
                g.add_flow(g.view_id(id_name, stmt.value), g.var(sig, stmt.lhs))
        elif isinstance(
            stmt, (ConstString, ConstNull, Label, Goto, If, Return, BinOp, UnaryOp)
        ):
            pass  # no reference flow (returns handled at call sites)
        elif isinstance(stmt, Invoke):
            self._translate_invoke(method, index, stmt)

    def _translate_invoke(self, method: Method, index: int, stmt: Invoke) -> None:
        g = self.graph
        sig = method.sig
        spec = classify_invoke(self.hierarchy, method, stmt)
        if spec is not None:
            self._add_op(method, index, stmt, spec)
            return
        # Ordinary interprocedural flow, resolved with CHA.
        for target in resolve_invoke(self.program, self.hierarchy, method, stmt):
            tsig = target.sig
            if target.is_instance and stmt.base is not None:
                g.add_flow(g.var(sig, stmt.base), g.var(tsig, "this"))
            for arg, pname in zip(stmt.args, target.param_names):
                g.add_flow(g.var(sig, arg), g.var(tsig, pname))
            if stmt.lhs is not None:
                for rname in self._returns_of(tsig):
                    g.add_flow(g.var(tsig, rname), g.var(sig, stmt.lhs))

    def _add_op(self, method: Method, index: int, stmt: Invoke, spec: OpSpec) -> None:
        g = self.graph
        sig = method.sig
        site = Site(sig, index, stmt.line)
        op = g.op(spec.kind, site, spec)
        if stmt.base is not None:
            g.add_flow(g.var(sig, stmt.base), g.op_recv(op))
        if spec.arg_index is not None and spec.arg_index < len(stmt.args):
            g.add_flow(g.var(sig, stmt.args[spec.arg_index]), g.op_arg(op, 0))
        if spec.arg_index2 is not None and spec.arg_index2 < len(stmt.args):
            g.add_flow(g.var(sig, stmt.args[spec.arg_index2]), g.op_arg(op, 1))
        if stmt.lhs is not None:
            g.add_flow(op, g.var(sig, stmt.lhs))

    # -- activity modelling -------------------------------------------------------

    def _model_activities(self) -> None:
        """Create activity nodes and wire them to framework callbacks.

        For each activity class ``a``, the platform's implicit
        ``t := new a; t.m()`` is modelled by an activity node with flow
        edges into the ``this`` variable of every framework-callback
        method ``m`` declared by ``a`` or an application ancestor.
        """
        g = self.graph
        for class_name in self.app.activity_classes():
            act = g.activity(class_name)
            for cname in self.hierarchy.superclass_chain(class_name):
                c = self.program.clazz(cname)
                if c is None or c.is_platform:
                    break
                for m in c.methods.values():
                    if m.is_static or not is_framework_callback(m.name):
                        continue
                    g.add_flow(act, g.var(m.sig, "this"))


def build_constraint_graph(
    app: AndroidApp, tracer: Optional[Tracer] = None
) -> BuildResult:
    """Construct the initial constraint graph for ``app``.

    With a tracer (explicit or ambient via :func:`repro.obs.enable`)
    the construction runs inside a ``build`` span annotated with the
    graph summary, and emits the ``build.*`` counters.
    """
    if tracer is None:
        tracer = active_tracer()
    builder = _GraphBuilder(app)
    if tracer is None:
        return builder.build()
    with tracer.span(obs_names.PHASE_BUILD) as span:
        result = builder.build(tracer)
        span.attrs.update(result.graph.summary())
    return result
