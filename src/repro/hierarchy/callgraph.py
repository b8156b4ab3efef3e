"""CHA resolution of call sites in application code.

The analysis of Section 4.3 treats *all* application methods as
executable and resolves polymorphic calls with class-hierarchy
information. :func:`resolve_invoke` resolves one call site; the
constraint-graph builder calls it once per site, and its table of sites
and targets (``AnalysisResult.invoke_sites``) is the call graph that
the clients and call-site contexts read.
"""

from __future__ import annotations

from typing import List

from repro.ir.program import Method, Program
from repro.ir.statements import Invoke, InvokeKind
from repro.hierarchy.cha import ClassHierarchy


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

