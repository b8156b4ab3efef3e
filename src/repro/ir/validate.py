"""Well-formedness checks for ALite programs.

The analyses assume structurally sound input; this validator catches
builder/frontend/loader bugs early with precise error messages:

* every local used or defined by a statement is declared;
* call-site arities match their use of locals;
* jump targets resolve to labels within the same method;
* superclass/interface references resolve to known classes, and no
  application class is its own ancestor;
* field accesses name fields that exist somewhere on the receiver's
  declared type chain (application classes only — platform types are
  allowed to have unmodelled fields);
* given the app's resources, every ``R.layout``/``R.menu`` constant
  names a layout/menu that exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import ReproError
from repro.ir.program import Clazz, Method, Program
from repro.ir.statements import ConstLayoutId, ConstMenuId, Goto, If, Invoke, Label, Load
from repro.ir.statements import Statement, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.resources.rtable import ResourceTable


class IRValidationError(ReproError):
    """Raised when a program fails validation; carries all messages."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__("\n".join(errors))
        self.errors = errors


def _field_visible(program: Program, class_name: str, field_name: str) -> bool:
    """Is ``field_name`` declared on ``class_name`` or an ancestor?"""
    seen: Set[str] = set()
    current: Optional[str] = class_name
    while current is not None and current not in seen:
        seen.add(current)
        c = program.clazz(current)
        if c is None:
            # Unknown ancestor (e.g. an unmodelled platform class): give
            # the access the benefit of the doubt.
            return True
        if c.is_platform:
            # Platform classes may have unmodelled fields — except
            # java.lang.Object, which declares none.
            return c.name != "java.lang.Object"
        if field_name in c.fields:
            return True
        current = c.superclass
    return False


def _method_visible(
    program: Program, class_name: str, method_name: str, arity: int
) -> bool:
    """Is the method declared on ``class_name``, an ancestor, or an interface?"""
    seen: Set[str] = set()
    work = [class_name]
    while work:
        current = work.pop()
        if current in seen:
            continue
        seen.add(current)
        c = program.clazz(current)
        if c is None:
            return True
        if c.is_platform:
            # Platform classes have unmodelled methods, except Object.
            if c.name != "java.lang.Object":
                return True
            continue
        if c.method(method_name, arity) is not None:
            return True
        if c.superclass is not None:
            work.append(c.superclass)
        work.extend(c.interfaces)
    return False


def _missing_resource(stmt: Statement, resources: "ResourceTable") -> Optional[str]:
    if isinstance(stmt, ConstLayoutId) and not resources.has_layout(stmt.layout_name):
        return f"R.layout.{stmt.layout_name} names no layout"
    if isinstance(stmt, ConstMenuId) and not resources.has_menu(stmt.menu_name):
        return f"R.menu.{stmt.menu_name} names no menu"
    return None


def _at(method: Method, idx: int) -> str:
    """``Class.method/N[idx]``, the start of a statement's error message;
    formatted only when there is an error to report."""
    return f"{method.sig}[{idx}]"


def _validate_method(
    program: Program, method: Method, errors: List[str], resources: Optional["ResourceTable"]
) -> None:
    labels = {s.name for s in method.body if isinstance(s, Label)}
    for idx, stmt in enumerate(method.body):
        missing = _missing_resource(stmt, resources) if resources is not None else None
        if missing is not None:
            line = f" line {stmt.line}" if stmt.line is not None else ""
            errors.append(f"{_at(method, idx)}{line}: {missing}")
        for var in stmt.defs() + stmt.uses():
            if var not in method.locals:
                errors.append(f"{_at(method, idx)}: undeclared local {var!r}")
        if isinstance(stmt, Goto) and stmt.target not in labels:
            errors.append(f"{_at(method, idx)}: goto to unknown label {stmt.target!r}")
        if isinstance(stmt, If) and stmt.target not in labels:
            errors.append(f"{_at(method, idx)}: branch to unknown label {stmt.target!r}")
        if isinstance(stmt, (Load, Store)):
            base_local = method.locals.get(stmt.base)
            if base_local is not None and not _field_visible(
                program, base_local.type_name, stmt.field_name
            ):
                errors.append(
                    f"{_at(method, idx)}: field {stmt.field_name!r} not found on "
                    f"{base_local.type_name} or its ancestors"
                )
        if isinstance(stmt, Invoke):
            target = program.method(stmt.class_name, stmt.method_name, len(stmt.args))
            owner = program.clazz(stmt.class_name)
            if owner is not None and owner.is_application and target is None:
                # Declared target must exist on an application class
                # (platform classes legitimately have unmodelled methods,
                # and virtual dispatch may resolve upward in the hierarchy).
                if not _method_visible(program, stmt.class_name, stmt.method_name, len(stmt.args)):
                    errors.append(
                        f"{_at(method, idx)}: call target {stmt.class_name}.{stmt.method_name}"
                        f"/{len(stmt.args)} not found"
                    )


def _validate_class(
    program: Program, clazz: Clazz, errors: List[str], resources: Optional["ResourceTable"]
) -> None:
    if clazz.superclass is not None and program.clazz(clazz.superclass) is None:
        errors.append(f"{clazz.name}: unknown superclass {clazz.superclass!r}")
    for iface in clazz.interfaces:
        if program.clazz(iface) is None:
            errors.append(f"{clazz.name}: unknown interface {iface!r}")
    for method in clazz.methods.values():
        if method.class_name != clazz.name:
            errors.append(
                f"{clazz.name}: method {method.name} claims owner {method.class_name}"
            )
        _validate_method(program, method, errors, resources)


def _inheritance_cycles(program: Program) -> List[List[str]]:
    """Each superclass cycle among application classes, once, as its
    classes from the first one met in program order.

    Every class joins one walk at most: a walk stops at a class an
    earlier walk finished, so the check is linear in the classes.
    """
    finished: Set[str] = set()
    cycles: List[List[str]] = []
    for clazz in program.classes.values():
        # Class -> its position on this walk's path.
        path: Dict[str, int] = {}
        current: Optional[str] = clazz.name
        while current is not None and current not in finished:
            if current in path:
                cycles.append(list(path)[path[current]:])
                break
            c = program.clazz(current)
            if c is None or c.is_platform:
                break
            path[current] = len(path)
            current = c.superclass
        finished.update(path)
    return cycles


def validate_program(
    program: Program,
    strict: bool = True,
    resources: Optional["ResourceTable"] = None,
) -> List[str]:
    """Validate ``program``; raise :class:`IRValidationError` if ``strict``.

    Returns the (possibly empty) list of error messages when not strict.
    Only application classes are checked — platform stubs are trusted.
    Resource constants are checked only when ``resources`` is given.
    """
    errors: List[str] = []
    for clazz in program.classes.values():
        if clazz.is_platform:
            continue
        _validate_class(program, clazz, errors, resources)
    for cycle in _inheritance_cycles(program):
        errors.append(
            f"{cycle[0]}: cyclic inheritance: {' extends '.join(cycle + cycle[:1])}"
        )
    if errors and strict:
        raise IRValidationError(errors)
    return errors
