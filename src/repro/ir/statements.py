"""Three-address statements of the ALite IR.

Statement forms follow Section 3.1 of the paper:

* plain-Java core (``JLite``): ``x := y``, ``x := new c``, ``x := y.f``,
  ``x.f := y``, calls, and returns;
* Android extensions: ``x := R.layout.f`` and ``x := R.id.f`` which load
  layout/view id constants (Section 3.2.1);
* auxiliary forms the static analysis ignores but the concrete
  interpreter honours: integer/string/null constants, casts, labels,
  conditional and unconditional jumps.

The constraint-graph analysis of Section 4 is flow-insensitive, so it
never looks at ``If``/``Goto``/``Label``; they exist so that the
frontend can lower real control flow and the interpreter can execute it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class InvokeKind(enum.Enum):
    """Dispatch flavour of a call site."""

    VIRTUAL = "virtual"  # receiver-based dynamic dispatch
    SPECIAL = "special"  # constructors and super calls
    STATIC = "static"  # no receiver
    INTERFACE = "interface"  # dispatch through an interface type

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(slots=True)
class Statement:
    """Base class for all IR statements.

    ``line`` is an optional source line used for diagnostics and for
    naming allocation/operation nodes the way the paper does (e.g. the
    listener allocated at line 15 of Figure 1 becomes ``Listener_15``).
    """

    line: Optional[int] = field(default=None, kw_only=True)

    def defs(self) -> Tuple[str, ...]:
        """Variables written by this statement."""
        return ()

    def uses(self) -> Tuple[str, ...]:
        """Variables read by this statement."""
        return ()


@dataclass(slots=True)
class Assign(Statement):
    """``lhs := rhs`` (both locals)."""

    lhs: str
    rhs: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)

    def uses(self) -> Tuple[str, ...]:
        return (self.rhs,)


@dataclass(slots=True)
class Cast(Statement):
    """``lhs := (type) rhs``.

    Reference analysis treats a cast as an assignment; the static type
    is kept for clients (e.g. the cast checker in ``repro.clients``).
    """

    lhs: str
    type_name: str
    rhs: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)

    def uses(self) -> Tuple[str, ...]:
        return (self.rhs,)


@dataclass(slots=True)
class New(Statement):
    """``lhs := new class_name``.

    Allocation sites are the static abstraction of run-time objects;
    each ``New`` becomes an allocation node in the constraint graph.
    """

    lhs: str
    class_name: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)


@dataclass(slots=True)
class Load(Statement):
    """``lhs := base.field_name`` (instance field read)."""

    lhs: str
    base: str
    field_name: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)

    def uses(self) -> Tuple[str, ...]:
        return (self.base,)


@dataclass(slots=True)
class Store(Statement):
    """``base.field_name := rhs`` (instance field write)."""

    base: str
    field_name: str
    rhs: str

    def uses(self) -> Tuple[str, ...]:
        return (self.base, self.rhs)


@dataclass(slots=True)
class StaticLoad(Statement):
    """``lhs := class_name.field_name`` (static field read)."""

    lhs: str
    class_name: str
    field_name: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)


@dataclass(slots=True)
class StaticStore(Statement):
    """``class_name.field_name := rhs`` (static field write)."""

    class_name: str
    field_name: str
    rhs: str

    def uses(self) -> Tuple[str, ...]:
        return (self.rhs,)


@dataclass(slots=True)
class ConstLayoutId(Statement):
    """``lhs := R.layout.layout_name`` — load a layout id constant."""

    lhs: str
    layout_name: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)


@dataclass(slots=True)
class ConstViewId(Statement):
    """``lhs := R.id.id_name`` — load a view id constant."""

    lhs: str
    id_name: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)


@dataclass(slots=True)
class ConstMenuId(Statement):
    """``lhs := R.menu.f`` — load a menu id constant (menu extension)."""

    lhs: str
    menu_name: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)


@dataclass(slots=True)
class ConstInt(Statement):
    """``lhs := value`` (plain integer constant)."""

    lhs: str
    value: int

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)


@dataclass(slots=True)
class ConstString(Statement):
    """``lhs := "value"``."""

    lhs: str
    value: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)


@dataclass(slots=True)
class ConstNull(Statement):
    """``lhs := null``."""

    lhs: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)


@dataclass(slots=True)
class Invoke(Statement):
    """``lhs := base.method(args)`` / ``base.method(args)`` / static call.

    ``sig`` is the *declared* target: a :class:`repro.ir.program.MethodSig`
    naming the class that syntactically owns the method and the
    name/arity being invoked. Virtual/interface calls are resolved to
    concrete targets by class-hierarchy analysis.
    """

    lhs: Optional[str]
    kind: InvokeKind
    base: Optional[str]  # None for static calls
    class_name: str  # declared class of the target
    method_name: str
    args: Tuple[str, ...]

    def __post_init__(self) -> None:
        self.args = tuple(self.args)
        if self.kind is InvokeKind.STATIC:
            if self.base is not None:
                raise ValueError("static call cannot have a receiver")
        elif self.base is None:
            raise ValueError(f"{self.kind} call requires a receiver")

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,) if self.lhs is not None else ()

    def uses(self) -> Tuple[str, ...]:
        base = (self.base,) if self.base is not None else ()
        return base + self.args


@dataclass(slots=True)
class BinOp(Statement):
    """``lhs := a <op> b`` over primitives (or reference equality).

    Produces no reference flow, so the static analysis ignores it; the
    interpreter evaluates it. ``op`` is one of ``+ - * / % == != < <=
    > >= && ||``.
    """

    lhs: str
    op: str
    a: str
    b: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)

    def uses(self) -> Tuple[str, ...]:
        return (self.a, self.b)


@dataclass(slots=True)
class UnaryOp(Statement):
    """``lhs := <op> a`` where op is ``!`` or ``-``."""

    lhs: str
    op: str
    a: str

    def defs(self) -> Tuple[str, ...]:
        return (self.lhs,)

    def uses(self) -> Tuple[str, ...]:
        return (self.a,)


@dataclass(slots=True)
class Return(Statement):
    """``return var`` or ``return`` (``var`` is None)."""

    var: Optional[str] = None

    def uses(self) -> Tuple[str, ...]:
        return (self.var,) if self.var is not None else ()


@dataclass(slots=True)
class Label(Statement):
    """Jump target; a no-op when executed."""

    name: str


@dataclass(slots=True)
class Goto(Statement):
    """Unconditional jump to ``target`` label."""

    target: str


@dataclass(slots=True)
class If(Statement):
    """``if cond != 0 goto target``.

    The condition variable is interpreted C-style: any non-zero /
    non-null value branches. The static analysis ignores this statement
    entirely (flow insensitivity).
    """

    cond: str
    target: str

    def uses(self) -> Tuple[str, ...]:
        return (self.cond,)
