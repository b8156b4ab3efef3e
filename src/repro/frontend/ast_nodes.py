"""Abstract syntax tree for the Java subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class CompilationUnit:
    package: Optional[str]
    imports: List[str]
    classes: List["ClassDecl"]
    path: Optional[str] = None  # source file, for error messages


@dataclass
class ClassDecl:
    name: str  # simple name
    superclass: Optional[str]  # as written (possibly simple)
    interfaces: List[str]
    fields: List["FieldDecl"]
    methods: List["MethodDecl"]
    is_interface: bool = False
    line: int = 0


@dataclass
class FieldDecl:
    name: str
    type_name: str  # as written
    is_static: bool = False
    line: int = 0


@dataclass
class MethodDecl:
    name: str
    params: List[Tuple[str, str]]  # (type as written, name)
    return_type: str
    body: Optional[List["Stmt"]]  # None for abstract/interface methods
    is_static: bool = False
    is_constructor: bool = False
    line: int = 0


# -- statements -------------------------------------------------------------


@dataclass
class Stmt:
    line: int = field(default=0, kw_only=True)


@dataclass
class LocalDecl(Stmt):
    type_name: str
    name: str
    init: Optional["Expr"]


@dataclass
class AssignStmt(Stmt):
    target: "Expr"  # Name, FieldAccess, or StaticAccess
    value: "Expr"


@dataclass
class ExprStmt(Stmt):
    expr: "Expr"


@dataclass
class ReturnStmt(Stmt):
    value: Optional["Expr"]


@dataclass
class IfStmt(Stmt):
    cond: "Expr"
    then_body: List[Stmt]
    else_body: List[Stmt]


@dataclass
class WhileStmt(Stmt):
    cond: "Expr"
    body: List[Stmt]


# -- expressions --------------------------------------------------------------


@dataclass
class Expr:
    line: int = field(default=0, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class StringLit(Expr):
    value: str


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class NullLit(Expr):
    pass


@dataclass
class Name(Expr):
    """A bare identifier: a local, or (after resolution) a class name."""

    ident: str


@dataclass
class ThisExpr(Expr):
    pass


@dataclass
class FieldAccess(Expr):
    """``base.field`` where base is an expression."""

    base: Expr
    field_name: str


@dataclass
class Call(Expr):
    """``base.method(args)``; base None means an unqualified call
    (implicitly ``this.method`` or a static method of the same class)."""

    base: Optional[Expr]
    method: str
    args: List[Expr]


@dataclass
class NewExpr(Expr):
    type_name: str
    args: List[Expr]


@dataclass
class CastExpr(Expr):
    type_name: str
    expr: Expr


@dataclass
class BinaryExpr(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryExpr(Expr):
    op: str
    operand: Expr
