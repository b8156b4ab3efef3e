"""CHA-based call graph over application code.

The analysis of Section 4.3 treats *all* application methods as
executable and resolves polymorphic calls with class-hierarchy
information. :func:`resolve_invoke` resolves one call site; the
constraint-graph builder calls it once per site, and its table of sites
and targets is the call graph the clients read.
:func:`build_call_graph` materialises a standalone graph for call-site
cloning (:mod:`repro.core.context`), which runs before the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.ir.program import Method, MethodSig, Program
from repro.ir.statements import Invoke, InvokeKind
from repro.hierarchy.cha import ClassHierarchy


@dataclass(frozen=True)
class CallSite:
    """A call statement within a caller, identified by statement index."""

    caller: MethodSig
    index: int

    def __str__(self) -> str:
        return f"{self.caller}@{self.index}"


class CallGraph:
    """Call edges from call sites to resolved application targets."""

    def __init__(self) -> None:
        self._edges: Dict[CallSite, List[MethodSig]] = {}
        self._callers: Dict[MethodSig, Set[CallSite]] = {}

    def add_edge(self, site: CallSite, target: MethodSig) -> None:
        targets = self._edges.setdefault(site, [])
        if target not in targets:
            targets.append(target)
            self._callers.setdefault(target, set()).add(site)

    def targets(self, site: CallSite) -> List[MethodSig]:
        return list(self._edges.get(site, ()))

    def callers_of(self, target: MethodSig) -> Set[CallSite]:
        return set(self._callers.get(target, ()))

    def edge_count(self) -> int:
        return sum(len(ts) for ts in self._edges.values())


def resolve_invoke(
    program: Program,
    hierarchy: ClassHierarchy,
    caller: Method,
    stmt: Invoke,
) -> List[Method]:
    """Resolve one call site to its possible application targets.

    Static and special calls resolve directly; virtual and interface
    calls use CHA seeded by the *declared type of the receiver
    variable* (falling back to the syntactic owner class). Platform
    targets are excluded — their effects are modelled as operations.
    """
    if stmt.kind is InvokeKind.STATIC:
        for cname in hierarchy.superclass_chain(stmt.class_name):
            c = program.clazz(cname)
            if c is None or c.is_platform:
                break
            m = c.method(stmt.method_name, len(stmt.args))
            if m is not None:
                return [m] if m.is_static else []
        return []
    receiver_type = stmt.class_name
    if stmt.base is not None and stmt.base in caller.locals:
        receiver_type = caller.locals[stmt.base].type_name
    if stmt.kind is InvokeKind.SPECIAL:
        m = hierarchy.lookup(receiver_type, stmt.method_name, len(stmt.args))
        return [m] if m is not None and m.class_name and _is_app(program, m) else []
    targets = hierarchy.cha_targets(receiver_type, stmt.method_name, len(stmt.args))
    return [m for m in targets if _is_app(program, m)]


def _is_app(program: Program, method: Method) -> bool:
    c = program.clazz(method.class_name)
    return c is not None and c.is_application


def build_call_graph(program: Program, hierarchy: Optional[ClassHierarchy] = None) -> CallGraph:
    """Build the CHA call graph over all application methods."""
    if hierarchy is None:
        hierarchy = ClassHierarchy(program)
    graph = CallGraph()
    for method in program.application_methods():
        for index, stmt in enumerate(method.body):
            if not isinstance(stmt, Invoke):
                continue
            site = CallSite(method.sig, index)
            for target in resolve_invoke(program, hierarchy, method, stmt):
                graph.add_edge(site, target.sig)
    return graph
