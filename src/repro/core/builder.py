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

The same walk records two site tables that clients read instead of
walking method bodies again: every invoke site with its caller and its
CHA-resolved application targets (the app's call graph), and every cast
site. This walk is the only caller of ``resolve_invoke`` on the
analysis path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.app import AndroidApp
from repro.core.graph import RECV, ConstraintGraph
from repro.core.nodes import Site
from repro.hierarchy.cha import ClassHierarchy
from repro.hierarchy.callgraph import resolve_invoke
from repro.ir.program import Method, MethodSig, Program
from repro.ir.statements import (
    Assign,
    Cast,
    ConstInt,
    ConstLayoutId,
    ConstMenuId,
    ConstViewId,
    Invoke,
    Load,
    New,
    Return,
    StaticLoad,
    StaticStore,
    Store,
)
from repro.obs import names as obs_names
from repro.obs.tracer import Tracer, active as active_tracer
from repro.platform.api import OpKind, OpSpec, classify_invoke, is_framework_callback
from repro.platform.classes import VIEW


# One invoke site: caller, statement index, the statement, and the sigs
# of its application targets (empty when it has none).
InvokeSite = Tuple[MethodSig, int, Invoke, Tuple[MethodSig, ...]]
# One cast site: caller, statement index, the statement.
CastSite = Tuple[MethodSig, int, Cast]


@dataclass
class BuildResult:
    """The constructed graph plus side tables the solver and clients need.

    ``invoke_sites`` and ``cast_sites`` list their sites in program
    method order, and in statement order within a method. They are flat
    lists of tuples because they live as long as the result: a
    per-caller container would cost more than the sites it holds.
    """

    graph: ConstraintGraph
    hierarchy: ClassHierarchy
    app: AndroidApp
    invoke_sites: List[InvokeSite]
    cast_sites: List[CastSite]


# What a call edge needs of its target: its sig, the graph's locals table
# of it, and its return variables.
_Callee = Tuple[MethodSig, Dict[str, int], List[str]]


class _GraphBuilder:
    def __init__(self, app: AndroidApp) -> None:
        self.app = app
        self.program: Program = app.program
        self.hierarchy = ClassHierarchy(self.program)
        self.graph = ConstraintGraph()
        self.result = BuildResult(self.graph, self.hierarchy, app, [], [])
        # One record per call target.
        self._callees: Dict[Method, _Callee] = {}
        # (static class, field name) -> declaring class.
        self._field_owners: Dict[Tuple[str, str], str] = {}

    # -- helpers ---------------------------------------------------------------

    def _field_owner(self, start_class: str, field_name: str) -> str:
        """Declaring class of ``field_name`` looked up from ``start_class``.

        Field-based analysis keys field nodes by the declaring class so
        that accesses through different static types of the same object
        share one node.
        """
        key = (start_class, field_name)
        owner = self._field_owners.get(key)
        if owner is None:
            owner = start_class
            for cname in self.hierarchy.superclass_chain(start_class):
                c = self.program.clazz(cname)
                if c is not None and field_name in c.fields:
                    owner = cname
                    break
            self._field_owners[key] = owner
        return owner

    def _callee(self, target: Method) -> _Callee:
        record = self._callees.get(target)
        if record is None:
            sig = target.sig
            returns = [
                stmt.var
                for stmt in target.body
                if type(stmt) is Return and stmt.var is not None
            ]
            record = self._callees[target] = (sig, self.graph.locals_of(sig), returns)
        return record

    def _is_view_class(self, name: str) -> bool:
        return self.hierarchy.is_subtype(name, VIEW)

    # -- statement translation ---------------------------------------------------

    def build(self, tracer: Optional[Tracer] = None) -> BuildResult:
        methods = 0
        statements = 0
        graph = self.graph
        translators = self._translators()
        for method in self.program.application_methods():
            methods += 1
            sig = method.sig
            locals_ = graph.locals_of(sig)
            statements += len(method.body)
            for index, stmt in enumerate(method.body):
                translate = translators.get(type(stmt))
                if translate is not None:
                    translate(method, sig, locals_, index, stmt)
        self._model_activities()
        if tracer is not None:
            tracer.counter(obs_names.COUNTER_BUILD_METHODS, methods)
            tracer.counter(obs_names.COUNTER_BUILD_STATEMENTS, statements)
            tracer.counter(
                obs_names.COUNTER_BUILD_FLOW_EDGES, self.graph.flow_edge_count()
            )
            tracer.counter(obs_names.COUNTER_BUILD_OPS, len(self.graph.ops()))
        return self.result

    def _translators(self) -> Dict[type, Callable[..., None]]:
        """Statement class -> the function adding its edges, called as
        ``translate(method, sig, locals_, index, stmt)`` with ``locals_``
        the graph's name -> id table of ``sig``'s locals.

        Constants without an id, control flow, arithmetic and ``Return``
        (handled at call sites) carry no reference flow and have none.
        """
        g = self.graph
        flow = g.add_flow_ids
        local = g.local_id
        resources = self.app.resources

        def assign(method, sig, locals_, index, stmt):
            flow(local(locals_, sig, stmt.rhs), local(locals_, sig, stmt.lhs))

        cast_sites = self.result.cast_sites

        def cast(method, sig, locals_, index, stmt):
            cast_sites.append((sig, index, stmt))
            flow(
                local(locals_, sig, stmt.rhs),
                local(locals_, sig, stmt.lhs),
                type_filter=stmt.type_name,
            )

        def new(method, sig, locals_, index, stmt):
            site = Site(sig, index, stmt.line)
            alloc = g.alloc_id(
                site,
                stmt.class_name,
                is_view=self._is_view_class(stmt.class_name),
                is_listener=self.hierarchy.is_listener_class(stmt.class_name),
            )
            flow(alloc, local(locals_, sig, stmt.lhs))

        def load(method, sig, locals_, index, stmt):
            base_type = method.locals[stmt.base].type_name
            owner = self._field_owner(base_type, stmt.field_name)
            flow(g.field_id(owner, stmt.field_name), local(locals_, sig, stmt.lhs))

        def store(method, sig, locals_, index, stmt):
            base_type = method.locals[stmt.base].type_name
            owner = self._field_owner(base_type, stmt.field_name)
            flow(local(locals_, sig, stmt.rhs), g.field_id(owner, stmt.field_name))

        def static_load(method, sig, locals_, index, stmt):
            flow(
                g.static_field_id(stmt.class_name, stmt.field_name),
                local(locals_, sig, stmt.lhs),
            )

        def static_store(method, sig, locals_, index, stmt):
            flow(
                local(locals_, sig, stmt.rhs),
                g.static_field_id(stmt.class_name, stmt.field_name),
            )

        def const_layout_id(method, sig, locals_, index, stmt):
            value = resources.layout_id(stmt.layout_name)
            flow(g.layout_id_id(stmt.layout_name, value), local(locals_, sig, stmt.lhs))

        def const_view_id(method, sig, locals_, index, stmt):
            value = resources.view_id(stmt.id_name)
            flow(g.view_id_id(stmt.id_name, value), local(locals_, sig, stmt.lhs))

        def const_menu_id(method, sig, locals_, index, stmt):
            value = resources.menu_id(stmt.menu_name)
            flow(g.menu_id_id(stmt.menu_name, value), local(locals_, sig, stmt.lhs))

        def const_int(method, sig, locals_, index, stmt):
            # Raw integers that coincide with R constants behave as ids
            # (apps occasionally pass the literal value around).
            layout_name = resources.layout_name_of(stmt.value)
            if layout_name is not None:
                flow(
                    g.layout_id_id(layout_name, stmt.value), local(locals_, sig, stmt.lhs)
                )
            id_name = resources.view_id_name_of(stmt.value)
            if id_name is not None:
                flow(g.view_id_id(id_name, stmt.value), local(locals_, sig, stmt.lhs))

        return {
            Assign: assign,
            Cast: cast,
            New: new,
            Load: load,
            Store: store,
            StaticLoad: static_load,
            StaticStore: static_store,
            ConstLayoutId: const_layout_id,
            ConstViewId: const_view_id,
            ConstMenuId: const_menu_id,
            ConstInt: const_int,
            Invoke: self._translate_invoke,
        }

    def _translate_invoke(
        self, method: Method, sig: MethodSig, locals_: Dict[str, int], index: int, stmt: Invoke
    ) -> None:
        g = self.graph
        local = g.local_id
        targets = resolve_invoke(self.program, self.hierarchy, method, stmt)
        sites = self.result.invoke_sites
        spec = classify_invoke(self.hierarchy, method, stmt)
        if spec is not None:
            # An op site keeps its application targets too: the call
            # graph walks them although no flow edge is added for them.
            sites.append((sig, index, stmt, tuple([t.sig for t in targets])))
            self._add_op(sig, locals_, index, stmt, spec)
            return
        # Ordinary interprocedural flow, resolved with CHA.
        tsigs = []
        for target in targets:
            tsig, callee, returns = self._callee(target)
            tsigs.append(tsig)
            if target.is_instance and stmt.base is not None:
                g.add_flow_ids(local(locals_, sig, stmt.base), local(callee, tsig, "this"))
            for arg, pname in zip(stmt.args, target.param_names):
                g.add_flow_ids(local(locals_, sig, arg), local(callee, tsig, pname))
            if stmt.lhs is not None:
                for rname in returns:
                    g.add_flow_ids(local(callee, tsig, rname), local(locals_, sig, stmt.lhs))
        sites.append((sig, index, stmt, tuple(tsigs)))

    def _add_op(
        self, sig: MethodSig, locals_: Dict[str, int], index: int, stmt: Invoke, spec: OpSpec
    ) -> None:
        g = self.graph
        local = g.local_id
        op = g.op_id(spec.kind, Site(sig, index, stmt.line), spec)
        if stmt.base is not None:
            g.add_flow_ids(local(locals_, sig, stmt.base), g.port_id(op, RECV))
        if spec.arg_index is not None and spec.arg_index < len(stmt.args):
            g.add_flow_ids(local(locals_, sig, stmt.args[spec.arg_index]), g.port_id(op, 0))
        if spec.arg_index2 is not None and spec.arg_index2 < len(stmt.args):
            g.add_flow_ids(local(locals_, sig, stmt.args[spec.arg_index2]), g.port_id(op, 1))
        if stmt.lhs is not None:
            g.add_flow_ids(op, local(locals_, sig, stmt.lhs))

    # -- activity modelling -------------------------------------------------------

    def _model_activities(self) -> None:
        """Create activity nodes and wire them to framework callbacks.

        For each activity class ``a``, the platform's implicit
        ``t := new a; t.m()`` is modelled by an activity node with flow
        edges into the ``this`` variable of every framework-callback
        method ``m`` declared by ``a`` or an application ancestor.
        """
        g = self.graph
        for class_name in self.app.activity_classes(self.hierarchy):
            act = g.activity_id(class_name)
            for cname in self.hierarchy.superclass_chain(class_name):
                c = self.program.clazz(cname)
                if c is None or c.is_platform:
                    break
                for m in c.methods.values():
                    if m.is_static or not is_framework_callback(m.name):
                        continue
                    g.add_flow_ids(act, g.var_id(m.sig, "this"))


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
