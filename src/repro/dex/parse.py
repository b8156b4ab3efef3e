"""Assembler/loader: Dalvik text → ALite IR.

Parses the dialect emitted by :mod:`repro.dex.assemble`. The loader is
line-based: directives start with ``.``, labels with ``:``, everything
else is an instruction. ``invoke-*`` followed by ``move-result*``
merges into a single IR call with a result.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.dex.descriptors import (
    descriptor_to_type,
    split_method_descriptor,
)
from repro.errors import ReproError
from repro.ir.program import Clazz, Field, Method, Program
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
from repro.platform.classes import install_platform


class DexSyntaxError(ReproError):
    """Malformed Dalvik text."""


_INVOKE_KINDS = {
    "invoke-virtual": InvokeKind.VIRTUAL,
    "invoke-direct": InvokeKind.SPECIAL,
    "invoke-static": InvokeKind.STATIC,
    "invoke-interface": InvokeKind.INTERFACE,
}

_FIELD_REF_RE = re.compile(r"^(L[^;]+;)->([\w$<>]+):(.+)$")
_METHOD_REF_RE = re.compile(r"^(L[^;]+;)->([\w$<>]+)(\(.*\).+)$")


def _strip_comment(line: str) -> Tuple[str, Optional[int]]:
    source_line: Optional[int] = None
    if "#" in line:
        code, _hash, comment = line.partition("#")
        match = re.search(r"line\s+(\d+)", comment)
        if match:
            source_line = int(match.group(1))
        line = code
    return line.strip(), source_line


def _parse_field_ref(text: str) -> Tuple[str, str, str]:
    match = _FIELD_REF_RE.match(text.strip())
    if not match:
        raise DexSyntaxError(f"malformed field reference {text!r}")
    return (
        descriptor_to_type(match.group(1)),
        match.group(2),
        descriptor_to_type(match.group(3)),
    )


def _parse_method_ref(text: str) -> Tuple[str, str, List[str], str]:
    match = _METHOD_REF_RE.match(text.strip())
    if not match:
        raise DexSyntaxError(f"malformed method reference {text!r}")
    params, return_type = split_method_descriptor(match.group(3))
    return descriptor_to_type(match.group(1)), match.group(2), params, return_type


class _DexParser:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.index = 0
        self.program = Program()
        install_platform(self.program)

    def parse(self) -> Program:
        while self.index < len(self.lines):
            raw = self.lines[self.index]
            line, _src = _strip_comment(raw)
            if not line:
                self.index += 1
                continue
            if line.startswith((".class", ".interface")):
                self._parse_class(line)
            else:
                raise DexSyntaxError(f"unexpected top-level {line!r}", self.index + 1)
        return self.program

    # -- class level ------------------------------------------------------------

    def _parse_class(self, header: str) -> None:
        line_no = self.index + 1
        is_interface = header.startswith(".interface")
        parts = header.split()
        if len(parts) != 2:
            raise DexSyntaxError("expected '.class <descriptor>'", line_no)
        try:
            name = descriptor_to_type(parts[1])
        except ValueError as exc:
            raise DexSyntaxError(str(exc), line_no) from exc
        clazz = Clazz(name, superclass=None, is_interface=is_interface)
        interfaces: List[str] = []
        superclass = "java.lang.Object" if name != "java.lang.Object" else None
        self.index += 1
        while self.index < len(self.lines):
            raw = self.lines[self.index]
            line, _src = _strip_comment(raw)
            if not line:
                self.index += 1
                continue
            if line == ".end class":
                self.index += 1
                break
            if line.startswith(".method "):
                self._parse_method(clazz, line)
                continue
            try:
                if line.startswith(".super "):
                    superclass = descriptor_to_type(line.split()[1])
                elif line.startswith(".implements "):
                    interfaces.append(descriptor_to_type(line.split()[1]))
                elif line.startswith(".field "):
                    self._parse_field(clazz, line)
                else:
                    raise DexSyntaxError(f"unexpected {line!r} in class body")
            except ValueError as exc:
                # Errors of this line (malformed descriptors, duplicate
                # fields) are raised without a line; locate them here.
                raise DexSyntaxError(str(exc), self.index + 1) from exc
            self.index += 1
        else:
            raise DexSyntaxError("missing .end class", line_no)
        clazz.superclass = superclass
        clazz.interfaces = tuple(interfaces)
        try:
            self.program.add_class(clazz)
        except ValueError as exc:  # a duplicate, located at its header
            raise DexSyntaxError(str(exc), line_no) from exc

    def _parse_field(self, clazz: Clazz, line: str) -> None:
        body = line[len(".field "):].strip()
        is_static = False
        if body.startswith("static "):
            is_static = True
            body = body[len("static "):]
        name, _colon, descriptor = body.partition(":")
        if not descriptor:
            raise DexSyntaxError(f"malformed field {line!r}")
        clazz.add_field(
            Field(name.strip(), descriptor_to_type(descriptor.strip()), is_static=is_static)
        )

    # -- method level --------------------------------------------------------------

    def _parse_method(self, clazz: Clazz, header: str) -> None:
        line_no = self.index + 1
        body = header[len(".method "):].strip()
        is_static = False
        if body.startswith("static "):
            is_static = True
            body = body[len("static "):]
        match = re.match(r"^([\w$<>]+)(\(.*\).+)$", body)
        if not match:
            raise DexSyntaxError(f"malformed method header {header!r}", line_no)
        name = match.group(1)
        try:
            param_types, return_type = split_method_descriptor(match.group(2))
        except ValueError as exc:
            raise DexSyntaxError(str(exc), line_no) from exc
        method = Method(
            name, clazz.name, params=[], return_type=return_type, is_static=is_static
        )
        self.index += 1
        param_index = 0
        pending_invoke: Optional[Invoke] = None
        while self.index < len(self.lines):
            raw = self.lines[self.index]
            line, src = _strip_comment(raw)
            self.index += 1
            if not line:
                continue
            if line == ".end method":
                if pending_invoke is not None:
                    method.append(pending_invoke)
                try:
                    clazz.add_method(method)
                except ValueError as exc:  # a duplicate, located at its header
                    raise DexSyntaxError(str(exc), line_no) from exc
                return
            try:
                if line.startswith(".param "):
                    reg, _comma, descriptor = line[len(".param "):].partition(",")
                    if param_index >= len(param_types):
                        raise DexSyntaxError("too many .param directives")
                    declared = (
                        descriptor_to_type(descriptor.strip())
                        if descriptor.strip()
                        else param_types[param_index]
                    )
                    method.add_param(reg.strip(), declared)
                    param_index += 1
                    continue
                if line.startswith(".local "):
                    reg, _comma, descriptor = line[len(".local "):].partition(",")
                    method.add_local(reg.strip(), descriptor_to_type(descriptor.strip()))
                    continue
                stmt, pending_invoke = self._parse_instruction(
                    line, src, method, pending_invoke
                )
            except ValueError as exc:
                # Errors of this line (malformed descriptors and operands,
                # operand lists that do not unpack, bad integer literals)
                # are raised without a line; locate them here.
                raise DexSyntaxError(str(exc), self.index) from exc
            if stmt is not None:
                method.append(stmt)
        raise DexSyntaxError("missing .end method", line_no)

    def _parse_instruction(
        self,
        line: str,
        src: Optional[int],
        method: Method,
        pending: Optional[Invoke],
    ):
        """Returns (statement or None, new pending invoke)."""

        def flush_then(stmt):
            # An invoke not followed by move-result keeps a None lhs.
            if pending is not None:
                method.append(pending)
            return stmt, None

        if line.startswith(":"):
            return flush_then(Label(line[1:], line=src))
        opcode, _space, rest = line.partition(" ")
        rest = rest.strip()

        if opcode.startswith("move-result"):
            if pending is None:
                raise DexSyntaxError("move-result without invoke")
            pending.lhs = rest
            return pending, None

        if opcode.startswith("invoke-"):
            if pending is not None:
                method.append(pending)
            kind = _INVOKE_KINDS.get(opcode)
            if kind is None:
                raise DexSyntaxError(f"unknown invoke {opcode!r}")
            match = re.match(r"^\{([^}]*)\}\s*,\s*(.+)$", rest)
            if not match:
                raise DexSyntaxError(f"malformed invoke {line!r}")
            registers = [r.strip() for r in match.group(1).split(",") if r.strip()]
            class_name, mname, params, _ret = _parse_method_ref(match.group(2))
            if kind is InvokeKind.STATIC:
                base, args = None, registers
            else:
                if not registers:
                    raise DexSyntaxError("instance invoke needs a receiver")
                base, args = registers[0], registers[1:]
            if len(args) != len(params):
                raise DexSyntaxError(
                    f"argument count {len(args)} does not match descriptor "
                    f"({len(params)} params)"
                )
            return None, Invoke(None, kind, base, class_name, mname, tuple(args), line=src)

        # Every other opcode flushes a pending invoke first.
        if opcode == "move":
            lhs, rhs = [p.strip() for p in rest.split(",")]
            return flush_then(Assign(lhs, rhs, line=src))
        if opcode == "check-cast":
            reg, descriptor = [p.strip() for p in rest.split(",")]
            type_name = descriptor_to_type(descriptor)
            if pending is not None:
                method.append(pending)
            # Peephole: `move x, y; check-cast x, T` is the assembly of
            # `x := (T) y`; merge it back so cast type-filtering (and
            # the original statement structure) survives the round trip.
            if (
                method.body
                and isinstance(method.body[-1], Assign)
                and method.body[-1].lhs == reg
            ):
                previous = method.body.pop()
                return Cast(reg, type_name, previous.rhs, line=src), None
            return Cast(reg, type_name, reg, line=src), None
        if opcode == "new-instance":
            reg, descriptor = [p.strip() for p in rest.split(",")]
            return flush_then(New(reg, descriptor_to_type(descriptor), line=src))
        if opcode.startswith("iget"):
            lhs, base, ref = [p.strip() for p in rest.split(",", 2)]
            _owner, fname, _ftype = _parse_field_ref(ref)
            return flush_then(Load(lhs, base, fname, line=src))
        if opcode.startswith("iput"):
            rhs, base, ref = [p.strip() for p in rest.split(",", 2)]
            _owner, fname, _ftype = _parse_field_ref(ref)
            return flush_then(Store(base, fname, rhs, line=src))
        if opcode.startswith("sget"):
            lhs, ref = [p.strip() for p in rest.split(",", 1)]
            owner, fname, _ftype = _parse_field_ref(ref)
            return flush_then(StaticLoad(lhs, owner, fname, line=src))
        if opcode.startswith("sput"):
            rhs, ref = [p.strip() for p in rest.split(",", 1)]
            owner, fname, _ftype = _parse_field_ref(ref)
            return flush_then(StaticStore(owner, fname, rhs, line=src))
        if opcode == "const-layout":
            reg, name = [p.strip() for p in rest.split(",", 1)]
            return flush_then(ConstLayoutId(reg, name, line=src))
        if opcode == "const-view-id":
            reg, name = [p.strip() for p in rest.split(",", 1)]
            return flush_then(ConstViewId(reg, name, line=src))
        if opcode == "const-menu":
            reg, name = [p.strip() for p in rest.split(",", 1)]
            return flush_then(ConstMenuId(reg, name, line=src))
        if opcode == "const-string":
            reg, literal = [p.strip() for p in rest.split(",", 1)]
            if not (literal.startswith('"') and literal.endswith('"')):
                raise DexSyntaxError("malformed string literal")
            value = literal[1:-1].replace('\\"', '"').replace("\\\\", "\\")
            return flush_then(ConstString(reg, value, line=src))
        if opcode.startswith("const/"):
            reg, value = [p.strip() for p in rest.split(",", 1)]
            number = int(value, 0)
            if opcode == "const/4" and number == 0:
                return flush_then(ConstNull(reg, line=src))
            return flush_then(ConstInt(reg, number, line=src))
        if opcode == "return-void":
            return flush_then(Return(line=src))
        if opcode.startswith("return"):
            return flush_then(Return(rest, line=src))
        if opcode == "goto":
            return flush_then(Goto(rest.lstrip(":"), line=src))
        if opcode == "if-nez":
            reg, target = [p.strip() for p in rest.split(",", 1)]
            return flush_then(If(reg, target.lstrip(":"), line=src))
        if opcode == "binop":
            match = re.match(r'^"([^"]+)"\s+(\S+),\s*(\S+),\s*(\S+)$', rest)
            if not match:
                raise DexSyntaxError(f"malformed binop {line!r}")
            return flush_then(
                BinOp(match.group(2), match.group(1), match.group(3), match.group(4), line=src)
            )
        if opcode == "unop":
            match = re.match(r'^"([^"]+)"\s+(\S+),\s*(\S+)$', rest)
            if not match:
                raise DexSyntaxError(f"malformed unop {line!r}")
            return flush_then(
                UnaryOp(match.group(2), match.group(1), match.group(3), line=src)
            )
        raise DexSyntaxError(f"unknown opcode {opcode!r}")


def parse_dex_text(text: str) -> Program:
    """Load a Dalvik-text program into ALite IR (platform installed)."""
    return _DexParser(text).parse()
