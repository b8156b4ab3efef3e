"""Assembler/loader: Dalvik text → ALite IR.

Parses the dialect emitted by :mod:`repro.dex.assemble` in one pass.
:func:`_scan` yields each non-blank line once, as (line number, code,
``# line N`` value); a ``#`` starts a comment only outside a string
literal. Directives start with ``.``, labels with ``:``; every other
line is an instruction, dispatched on its opcode word through
``_OPCODES``. A key ending in ``*`` names a family (``iget*`` covers
``iget``, ``iget-object``, ``iget-wide``, ...). An ``invoke-*`` is
appended when it is read; a ``move-result*`` right after it sets its
result, so the two form one IR call. A parse resolves each distinct
opcode word, type descriptor and method descriptor once
(:class:`_Memo`), so every use of one type name shares one string.

A string literal is ``"..."`` with the escapes ``\\\\``, ``\\"``,
``\\n`` and ``\\uXXXX`` (the ones :mod:`repro.dex.assemble` writes),
decoded in one left-to-right pass; anything else after a backslash is
an error.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Tuple

from repro.dex.descriptors import (
    descriptor_to_type,
    split_method_descriptor,
)
from repro.errors import ReproError
from repro.gcpause import gc_paused
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

# The code part of a line holding a quote: everything before the first
# '#' outside a string literal (an unterminated literal runs to the end).
_CODE_RE = re.compile(r'(?:[^"#]+|"[^"\\]*(?:\\.[^"\\]*)*"?)*')
_SOURCE_LINE_RE = re.compile(r"line\s+(\d+)")
_STRING_RE = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"')
_ESCAPE_RE = re.compile(r"\\(u[0-9a-fA-F]{4}|.)")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n"}
_METHOD_HEADER_RE = re.compile(r"([\w$<>]+)(\(.*\).+)")
_FIELD_REF_RE = re.compile(r"(L[^;]+;)->([\w$<>]+):(.+)")
_METHOD_REF_RE = re.compile(r"(L[^;]+;)->([\w$<>]+)(\(.*\).+)")
_INVOKE_RE = re.compile(r"\{([^}]*)\}\s*,\s*(.+)")
_BINOP_RE = re.compile(r'"([^"]+)"\s+(\S+),\s*(\S+),\s*(\S+)')
_UNOP_RE = re.compile(r'"([^"]+)"\s+(\S+),\s*(\S+)')


def _scan(text: str) -> Iterator[Tuple[int, str, Optional[int]]]:
    """Yield (line number, code, ``# line N`` value) per non-blank line."""
    for number, raw in enumerate(text.splitlines(), 1):
        if '"' in raw:
            code = _CODE_RE.match(raw).group()
            comment = raw[len(code) + 1:]
        else:
            code, _hash, comment = raw.partition("#")
        code = code.strip()
        if code:
            match = _SOURCE_LINE_RE.search(comment) if comment else None
            yield number, code, int(match.group(1)) if match else None


def _match(pattern: "re.Pattern[str]", text: str, what: str) -> "re.Match[str]":
    match = pattern.fullmatch(text)
    if match is None:
        raise DexSyntaxError(f"malformed {what} {text!r}")
    return match


def _operands(args: str, maxsplit: int = -1) -> List[str]:
    return [p.strip() for p in args.split(",", maxsplit)]


def _split_static(body: str) -> Tuple[bool, str]:
    body = body.strip()
    if body.startswith("static "):
        return True, body[len("static "):]
    return False, body


def _field_ref(text: str, types: "_Memo") -> Tuple[str, str]:
    """(owner class, field name) of ``Lp/A;->f:T``; ``T`` is checked."""
    match = _match(_FIELD_REF_RE, text, "field reference")
    owner = types[match.group(1)]
    types[match.group(3)]
    return owner, match.group(2)


def _unescape(match: "re.Match[str]") -> str:
    escape = match.group(1)
    if escape[0] == "u" and len(escape) == 5:
        return chr(int(escape[1:], 16))
    if escape not in _ESCAPES:
        raise DexSyntaxError(f"unknown escape \\{escape} in string literal")
    return _ESCAPES[escape]


# -- instructions --------------------------------------------------------------
#
# A handler takes (opcode, operand text, "# line N" value, method body,
# parser) and returns the statement to append, or None. It resolves
# descriptors through the parser's memos.


def _move(op, args, src, body, parser):
    lhs, rhs = _operands(args)
    return Assign(lhs, rhs, line=src)


def _move_result(op, args, src, body, parser):
    call = body[-1] if body else None
    if not isinstance(call, Invoke) or call.lhs is not None:
        raise DexSyntaxError("move-result without invoke")
    call.lhs = args
    return None


def _check_cast(op, args, src, body, parser):
    reg, descriptor = _operands(args)
    type_name = parser.types[descriptor]
    # Peephole: `move x, y; check-cast x, T` is the assembly of
    # `x := (T) y`; merge it back so cast type-filtering (and the
    # original statement structure) survives the round trip.
    if body and isinstance(body[-1], Assign) and body[-1].lhs == reg:
        return Cast(reg, type_name, body.pop().rhs, line=src)
    return Cast(reg, type_name, reg, line=src)


def _new_instance(op, args, src, body, parser):
    reg, descriptor = _operands(args)
    return New(reg, parser.types[descriptor], line=src)


def _iget(op, args, src, body, parser):
    lhs, base, ref = _operands(args, 2)
    return Load(lhs, base, _field_ref(ref, parser.types)[1], line=src)


def _iput(op, args, src, body, parser):
    rhs, base, ref = _operands(args, 2)
    return Store(base, _field_ref(ref, parser.types)[1], rhs, line=src)


def _sget(op, args, src, body, parser):
    lhs, ref = _operands(args, 1)
    return StaticLoad(lhs, *_field_ref(ref, parser.types), line=src)


def _sput(op, args, src, body, parser):
    rhs, ref = _operands(args, 1)
    return StaticStore(*_field_ref(ref, parser.types), rhs, line=src)


def _const_named(statement):
    """Handler for ``const-layout``/``const-view-id``/``const-menu``."""

    def handler(op, args, src, body, parser):
        reg, name = _operands(args, 1)
        return statement(reg, name, line=src)

    return handler


def _const_string(op, args, src, body, parser):
    reg, literal = _operands(args, 1)
    match = _STRING_RE.fullmatch(literal)
    if match is None:
        raise DexSyntaxError("malformed string literal")
    return ConstString(reg, _ESCAPE_RE.sub(_unescape, match.group(1)), line=src)


def _const(op, args, src, body, parser):
    reg, value = _operands(args, 1)
    number = int(value, 0)
    if op == "const/4" and number == 0:
        return ConstNull(reg, line=src)
    return ConstInt(reg, number, line=src)


def _return(op, args, src, body, parser):
    return Return(None if op == "return-void" else args, line=src)


def _goto(op, args, src, body, parser):
    return Goto(args.lstrip(":"), line=src)


def _if_nez(op, args, src, body, parser):
    reg, target = _operands(args, 1)
    return If(reg, target.lstrip(":"), line=src)


def _binop(op, args, src, body, parser):
    match = _match(_BINOP_RE, args, "binop")
    return BinOp(match.group(2), match.group(1), match.group(3), match.group(4), line=src)


def _unop(op, args, src, body, parser):
    match = _match(_UNOP_RE, args, "unop")
    return UnaryOp(match.group(2), match.group(1), match.group(3), line=src)


def _invoke(op, args, src, body, parser):
    kind = _INVOKE_KINDS.get(op)
    if kind is None:
        raise DexSyntaxError(f"unknown invoke {op!r}")
    match = _match(_INVOKE_RE, args, "invoke")
    registers = [r.strip() for r in match.group(1).split(",") if r.strip()]
    ref = _match(_METHOD_REF_RE, match.group(2), "method reference")
    params, _ret = parser.signatures[ref.group(3)]
    if kind is InvokeKind.STATIC:
        base, call_args = None, registers
    else:
        if not registers:
            raise DexSyntaxError("instance invoke needs a receiver")
        base, call_args = registers[0], registers[1:]
    if len(call_args) != len(params):
        raise DexSyntaxError(
            f"argument count {len(call_args)} does not match descriptor "
            f"({len(params)} params)"
        )
    owner = parser.types[ref.group(1)]
    return Invoke(None, kind, base, owner, ref.group(2), tuple(call_args), line=src)


_OPCODES = {
    "move": _move,
    "move-result*": _move_result,
    "check-cast": _check_cast,
    "new-instance": _new_instance,
    "iget*": _iget,
    "iput*": _iput,
    "sget*": _sget,
    "sput*": _sput,
    "const-layout": _const_named(ConstLayoutId),
    "const-view-id": _const_named(ConstViewId),
    "const-menu": _const_named(ConstMenuId),
    "const-string": _const_string,
    "const/*": _const,
    "return*": _return,
    "goto": _goto,
    "if-nez": _if_nez,
    "binop": _binop,
    "unop": _unop,
    "invoke-*": _invoke,
}
# The stem of each family key; an opcode word starting with a stem
# belongs to that family unless the word is itself a key.
_FAMILY_RE = re.compile("|".join(re.escape(k[:-1]) for k in _OPCODES if k[-1] == "*"))


def _handler(opcode: str):
    handler = _OPCODES.get(opcode)
    if handler is None:
        family = _FAMILY_RE.match(opcode)
        if family is None:
            raise DexSyntaxError(f"unknown opcode {opcode!r}")
        handler = _OPCODES[family.group() + "*"]
    return handler


class _Memo(dict):
    """``memo[key]`` is ``resolve(key)``, computed on the key's first use.

    Only results are stored: a key whose ``resolve`` raises raises again
    at each use, so the error is located at every line that has it.
    """

    __slots__ = ("resolve",)

    def __init__(self, resolve) -> None:
        super().__init__()
        self.resolve = resolve

    def __missing__(self, key: str):
        value = self[key] = self.resolve(key)
        return value


class _DexParser:
    def __init__(self, text: str) -> None:
        self.lines = _scan(text)
        self.program = Program()
        install_platform(self.program)
        # Per parse: opcode word -> handler, type descriptor -> type
        # name, method descriptor -> (parameter types, return type).
        # Every use of a key gets the same value; none is mutated.
        self.handlers = _Memo(_handler)
        self.types = _Memo(descriptor_to_type)
        self.signatures = _Memo(split_method_descriptor)

    def parse(self) -> Program:
        for number, code, _src in self.lines:
            if not code.startswith((".class", ".interface")):
                raise DexSyntaxError(f"unexpected top-level {code!r}", number)
            self._parse_class(code, number)
        return self.program

    # -- class level ------------------------------------------------------------

    def _parse_class(self, header: str, header_no: int) -> None:
        parts = header.split()
        if len(parts) != 2:
            raise DexSyntaxError("expected '.class <descriptor>'", header_no)
        try:
            name = self.types[parts[1]]
        except ValueError as exc:
            raise DexSyntaxError(str(exc), header_no) from exc
        clazz = Clazz(name, superclass=None, is_interface=header.startswith(".interface"))
        interfaces: List[str] = []
        superclass = "java.lang.Object" if name != "java.lang.Object" else None
        for number, code, _src in self.lines:
            if code == ".end class":
                break
            if code.startswith(".method "):
                self._parse_method(clazz, code, number)
                continue
            try:
                if code.startswith(".super "):
                    superclass = self.types[code.split()[1]]
                elif code.startswith(".implements "):
                    interfaces.append(self.types[code.split()[1]])
                elif code.startswith(".field "):
                    is_static, body = _split_static(code[len(".field "):])
                    fname, _colon, descriptor = body.partition(":")
                    if not descriptor:
                        raise DexSyntaxError(f"malformed field {code!r}")
                    clazz.add_field(Field(
                        fname.strip(), self.types[descriptor.strip()],
                        is_static=is_static,
                    ))
                else:
                    raise DexSyntaxError(f"unexpected {code!r} in class body")
            except ValueError as exc:
                # Errors of this line (malformed descriptors, duplicate
                # fields) are raised without a line; locate them here.
                raise DexSyntaxError(str(exc), number) from exc
        else:
            raise DexSyntaxError("missing .end class", header_no)
        clazz.superclass = superclass
        clazz.interfaces = tuple(interfaces)
        try:
            self.program.add_class(clazz)
        except ValueError as exc:  # a duplicate, located at its header
            raise DexSyntaxError(str(exc), header_no) from exc

    # -- method level --------------------------------------------------------------

    def _parse_method(self, clazz: Clazz, header: str, header_no: int) -> None:
        is_static, signature = _split_static(header[len(".method "):])
        try:
            match = _match(_METHOD_HEADER_RE, signature, "method header")
            param_types, return_type = self.signatures[match.group(2)]
        except ValueError as exc:
            raise DexSyntaxError(str(exc), header_no) from exc
        method = Method(
            match.group(1), clazz.name, params=[], return_type=return_type,
            is_static=is_static,
        )
        body = method.body
        handlers, types = self.handlers, self.types
        for number, code, src in self.lines:
            if code == ".end method":
                try:
                    clazz.add_method(method)
                except ValueError as exc:  # a duplicate, located at its header
                    raise DexSyntaxError(str(exc), header_no) from exc
                return
            try:
                if code.startswith(".param "):
                    reg, _comma, descriptor = code[len(".param "):].partition(",")
                    if len(method.param_names) >= len(param_types):
                        raise DexSyntaxError("too many .param directives")
                    declared = (
                        types[descriptor.strip()]
                        if descriptor.strip()
                        else param_types[len(method.param_names)]
                    )
                    method.add_param(reg.strip(), declared)
                elif code.startswith(".local "):
                    reg, _comma, descriptor = code[len(".local "):].partition(",")
                    method.add_local(reg.strip(), types[descriptor.strip()])
                elif code[0] == ":":
                    body.append(Label(code[1:], line=src))
                else:
                    opcode, _space, args = code.partition(" ")
                    stmt = handlers[opcode](opcode, args.strip(), src, body, self)
                    if stmt is not None:
                        body.append(stmt)
            except ValueError as exc:
                # Errors of this line (malformed descriptors and operands,
                # operand lists that do not unpack, bad integer literals)
                # are raised without a line; locate them here.
                raise DexSyntaxError(str(exc), number) from exc
        raise DexSyntaxError("missing .end method", header_no)


@gc_paused()
def parse_dex_text(text: str) -> Program:
    """Load a Dalvik-text program into ALite IR (platform installed)."""
    return _DexParser(text).parse()
