"""Disassembler: ALite IR → Dalvik-flavoured text.

The emitted dialect mirrors smali: ``.class``/``.super``/
``.implements`` headers, ``.field`` and ``.method`` members, register
declarations via ``.local`` (carrying the static types ALite tracks),
and register-based instructions (``iget``/``iput``, ``invoke-*`` +
``move-result``, ``const*``, ``check-cast``, branches). A string
constant escapes backslash, double quote and every character
``str.splitlines`` breaks a line on, so it stays on its line and reads
back unchanged.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dex.descriptors import join_method_descriptor, type_to_descriptor
from repro.dex.parse import _INVOKE_KINDS
from repro.ir.program import Clazz, Method, Program
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

_INVOKE_NAMES = {kind: name for name, kind in _INVOKE_KINDS.items()}

# Backslash, double quote and every character `str.splitlines` breaks a
# line on; the loader decodes these escapes.
_STRING_ESCAPES = str.maketrans({
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    **{c: f"\\u{ord(c):04x}" for c in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"},
})


def _field_ref(program: Program, owner: str, name: str) -> str:
    """``Lp/A;->f:T``, with ``T`` the type of the field ``owner`` sees."""
    type_name = "java.lang.Object"
    current: Optional[str] = owner
    while current is not None:
        c = program.clazz(current)
        if c is None:
            break
        if name in c.fields:
            type_name = c.fields[name].type_name
            break
        current = c.superclass
    return f"{type_to_descriptor(owner)}->{name}:{type_to_descriptor(type_name)}"


def _method_ref(program: Program, stmt: Invoke) -> str:
    target = program.method(stmt.class_name, stmt.method_name, len(stmt.args))
    if target is not None:
        params = [target.locals[p].type_name for p in target.param_names]
        descriptor = join_method_descriptor(params, target.return_type)
    else:
        descriptor = join_method_descriptor(
            ["java.lang.Object"] * len(stmt.args), "java.lang.Object"
        )
    return f"{type_to_descriptor(stmt.class_name)}->{stmt.method_name}{descriptor}"


def _line_suffix(stmt) -> str:
    return f"  # line {stmt.line}" if stmt.line is not None else ""


def _assemble_stmt(program: Program, method: Method, stmt) -> List[str]:
    sfx = _line_suffix(stmt)
    if isinstance(stmt, Assign):
        return [f"    move {stmt.lhs}, {stmt.rhs}{sfx}"]
    if isinstance(stmt, Cast):
        out = []
        if stmt.lhs != stmt.rhs:
            out.append(f"    move {stmt.lhs}, {stmt.rhs}{sfx}")
        out.append(f"    check-cast {stmt.lhs}, {type_to_descriptor(stmt.type_name)}{sfx}")
        return out
    if isinstance(stmt, New):
        return [f"    new-instance {stmt.lhs}, {type_to_descriptor(stmt.class_name)}{sfx}"]
    if isinstance(stmt, Load):
        ref = _field_ref(program, method.locals[stmt.base].type_name, stmt.field_name)
        return [f"    iget-object {stmt.lhs}, {stmt.base}, {ref}{sfx}"]
    if isinstance(stmt, Store):
        ref = _field_ref(program, method.locals[stmt.base].type_name, stmt.field_name)
        return [f"    iput-object {stmt.rhs}, {stmt.base}, {ref}{sfx}"]
    if isinstance(stmt, StaticLoad):
        ref = _field_ref(program, stmt.class_name, stmt.field_name)
        return [f"    sget-object {stmt.lhs}, {ref}{sfx}"]
    if isinstance(stmt, StaticStore):
        ref = _field_ref(program, stmt.class_name, stmt.field_name)
        return [f"    sput-object {stmt.rhs}, {ref}{sfx}"]
    if isinstance(stmt, ConstLayoutId):
        return [f"    const-layout {stmt.lhs}, {stmt.layout_name}{sfx}"]
    if isinstance(stmt, ConstViewId):
        return [f"    const-view-id {stmt.lhs}, {stmt.id_name}{sfx}"]
    if isinstance(stmt, ConstMenuId):
        return [f"    const-menu {stmt.lhs}, {stmt.menu_name}{sfx}"]
    if isinstance(stmt, ConstInt):
        return [f"    const/16 {stmt.lhs}, {stmt.value}{sfx}"]
    if isinstance(stmt, ConstString):
        escaped = stmt.value.translate(_STRING_ESCAPES)
        return [f'    const-string {stmt.lhs}, "{escaped}"{sfx}']
    if isinstance(stmt, ConstNull):
        return [f"    const/4 {stmt.lhs}, 0{sfx}"]
    if isinstance(stmt, Invoke):
        registers = list(stmt.args)
        if stmt.kind is not InvokeKind.STATIC:
            registers = [stmt.base] + registers
        lines = [
            f"    {_INVOKE_NAMES[stmt.kind]} {{{', '.join(registers)}}}, "
            f"{_method_ref(program, stmt)}{sfx}"
        ]
        if stmt.lhs is not None:
            lines.append(f"    move-result-object {stmt.lhs}{sfx}")
        return lines
    if isinstance(stmt, Return):
        if stmt.var is None:
            return [f"    return-void{sfx}"]
        return [f"    return-object {stmt.var}{sfx}"]
    if isinstance(stmt, Label):
        return [f"    :{stmt.name}"]
    if isinstance(stmt, Goto):
        return [f"    goto :{stmt.target}{sfx}"]
    if isinstance(stmt, If):
        return [f"    if-nez {stmt.cond}, :{stmt.target}{sfx}"]
    if isinstance(stmt, BinOp):
        return [f"    binop \"{stmt.op}\" {stmt.lhs}, {stmt.a}, {stmt.b}{sfx}"]
    if isinstance(stmt, UnaryOp):
        return [f"    unop \"{stmt.op}\" {stmt.lhs}, {stmt.a}{sfx}"]
    raise TypeError(f"cannot assemble {type(stmt).__name__}")


def assemble_method(program: Program, method: Method) -> List[str]:
    params = [method.locals[p].type_name for p in method.param_names]
    descriptor = join_method_descriptor(params, method.return_type)
    flags = "static " if method.is_static else ""
    lines = [f".method {flags}{method.name}{descriptor}"]
    for pname in method.param_names:
        lines.append(
            f"    .param {pname}, {type_to_descriptor(method.locals[pname].type_name)}"
        )
    for name, local in sorted(method.locals.items()):
        if name == "this" or name in method.param_names:
            continue
        lines.append(f"    .local {name}, {type_to_descriptor(local.type_name)}")
    for stmt in method.body:
        lines.extend(_assemble_stmt(program, method, stmt))
    lines.append(".end method")
    return lines


def assemble_class(program: Program, clazz: Clazz) -> List[str]:
    kind = ".interface" if clazz.is_interface else ".class"
    lines = [f"{kind} {type_to_descriptor(clazz.name)}"]
    if clazz.superclass is not None:
        lines.append(f".super {type_to_descriptor(clazz.superclass)}")
    for interface in clazz.interfaces:
        lines.append(f".implements {type_to_descriptor(interface)}")
    for f in clazz.fields.values():
        flags = "static " if f.is_static else ""
        lines.append(f".field {flags}{f.name}:{type_to_descriptor(f.type_name)}")
    for method in clazz.methods.values():
        lines.append("")
        lines.extend(assemble_method(program, method))
    lines.append(".end class")
    return lines


def assemble_program(program: Program, include_platform: bool = False) -> str:
    """Emit the whole program as Dalvik text (application classes)."""
    lines: List[str] = []
    for clazz in program.classes.values():
        if clazz.is_platform and not include_platform:
            continue
        lines.extend(assemble_class(program, clazz))
        lines.append("")
    return "\n".join(lines)
