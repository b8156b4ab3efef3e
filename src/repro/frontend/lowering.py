"""Name resolution and lowering of the Java-subset AST to ALite IR.

Two passes over all compilation units:

1. **collection** — every class declaration is registered (qualified by
   its unit's package) so cross-file references resolve;
2. **lowering** — method bodies become three-address statement lists:
   expressions are flattened into temporaries, ``if``/``while`` become
   labels and conditional jumps, ``R.layout.x`` / ``R.id.x`` become id
   constants, ``new C(...)`` becomes an allocation plus a constructor
   call, and dotted names are resolved to locals, instance fields,
   static fields, or class references.

Name resolution order for a written type ``T``: primitives; the
declaring unit's package; explicit imports (by last segment); already
qualified names; platform packages (``android.view``,
``android.widget``, ...); nested-interface sugar (``View.OnClickListener``
→ ``android.view.View$OnClickListener``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.frontend.ast_nodes import (
    AssignStmt,
    BinaryExpr,
    BoolLit,
    Call,
    CastExpr,
    ClassDecl,
    CompilationUnit,
    Expr,
    ExprStmt,
    FieldAccess,
    IfStmt,
    IntLit,
    LocalDecl,
    MethodDecl,
    Name,
    NewExpr,
    NullLit,
    ReturnStmt,
    Stmt,
    StringLit,
    ThisExpr,
    UnaryExpr,
    WhileStmt,
)
from repro.frontend.errors import FrontendError, LowerError
from repro.frontend.parser import parse_compilation_unit
from repro.ir.builder import MethodBuilder
from repro.ir.program import Clazz, Field, Method, Program
from repro.ir.statements import BinOp, InvokeKind, UnaryOp
from repro.platform.classes import install_platform

_PRIMITIVES = {"int", "boolean", "long", "float", "double", "char", "void"}
_PLATFORM_PACKAGES = [
    "android.view",
    "android.widget",
    "android.app",
    "android.webkit",
    "android.content",
    "android.text",
    "android.os",
    "java.lang",
]

# Return types of the platform APIs the subset commonly calls, so that
# temporaries get useful static types (which drive op classification).
_PLATFORM_RETURNS = {
    "findViewById": "android.view.View",
    "inflate": "android.view.View",
    "getCurrentView": "android.view.View",
    "getChildAt": "android.view.View",
    "findFocus": "android.view.View",
    "getFocusedChild": "android.view.View",
    "getSelectedView": "android.view.View",
    "getParent": "android.view.View",
    "getMenuInflater": "android.view.MenuInflater",
    "getFragmentManager": "android.app.FragmentManager",
    "getSupportFragmentManager": "android.app.FragmentManager",
    "beginTransaction": "android.app.FragmentTransaction",
}


class _Resolver:
    """Maps written names to qualified class names."""

    def __init__(self, known: Set[str]) -> None:
        self.known = known

    def resolve(
        self, written: str, unit: CompilationUnit, line: int = 0
    ) -> str:
        result = self.try_resolve(written, unit)
        if result is None:
            raise LowerError(f"unknown type {written!r}", line)
        return result

    def try_resolve(self, written: str, unit: CompilationUnit) -> Optional[str]:
        if written in _PRIMITIVES:
            return written
        if written == "String":
            return "java.lang.String"
        if written in self.known:
            return written
        if unit.package:
            candidate = f"{unit.package}.{written}"
            if candidate in self.known:
                return candidate
        for imp in unit.imports:
            if imp.rsplit(".", 1)[-1] == written:
                return imp
            # import a.b.View; used as View.OnClickListener
            if written.startswith(imp.rsplit(".", 1)[-1] + "."):
                nested = imp + "$" + written.split(".", 1)[1].replace(".", "$")
                if nested in self.known:
                    return nested
        if "." not in written:
            for pkg in _PLATFORM_PACKAGES:
                candidate = f"{pkg}.{written}"
                if candidate in self.known:
                    return candidate
            return None
        # Dotted: maybe Outer.Nested (listener interfaces), written
        # either short (View.OnClickListener) or fully qualified
        # (android.widget.AdapterView.OnItemClickListener).
        parts = written.split(".")
        for split in range(len(parts) - 1, 0, -1):
            outer = self.try_resolve(".".join(parts[:split]), unit)
            if outer is None:
                continue
            nested = outer + "$" + "$".join(parts[split:])
            if nested in self.known:
                return nested
        return None


class _MethodLowerer:
    """Lowers one method body."""

    def __init__(
        self,
        compiler: "_Compiler",
        unit: CompilationUnit,
        clazz: Clazz,
        builder: MethodBuilder,
    ) -> None:
        self.compiler = compiler
        self.unit = unit
        self.clazz = clazz
        self.b = builder
        self.program = compiler.program
        self.resolver = compiler.resolver

    # -- helpers ------------------------------------------------------------------

    def error(self, message: str, line: int) -> LowerError:
        return LowerError(f"{self.clazz.name}.{self.b.method.name}: {message}", line)

    def resolve_type(self, written: str, line: int) -> str:
        return self.resolver.resolve(written, self.unit, line)

    def local_type(self, name: str) -> Optional[str]:
        local = self.b.method.locals.get(name)
        return local.type_name if local else None

    def _field_owner(self, class_name: str, field_name: str) -> Optional[Clazz]:
        current: Optional[str] = class_name
        while current is not None:
            c = self.program.clazz(current)
            if c is None:
                return None
            if field_name in c.fields:
                return c
            current = c.superclass
        return None

    def _method_owner(self, class_name: str, name: str, arity: int) -> Optional[Method]:
        current: Optional[str] = class_name
        while current is not None:
            c = self.program.clazz(current)
            if c is None:
                return None
            m = c.method(name, arity)
            if m is not None:
                return m
            current = c.superclass
        return None

    # -- statements ------------------------------------------------------------------

    def lower_body(self, body: Sequence[Stmt]) -> None:
        for stmt in body:
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, LocalDecl):
            type_name = self.resolve_type(stmt.type_name, stmt.line)
            self.b.local(stmt.name, type_name)
            if stmt.init is not None:
                value = self.lower_expr(stmt.init, expected=type_name)
                self.b.assign(stmt.name, value, line=stmt.line)
        elif isinstance(stmt, AssignStmt):
            self.lower_assignment(stmt)
        elif isinstance(stmt, ExprStmt):
            self.lower_expr(stmt.expr, result_unused=True)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is None:
                self.b.ret(line=stmt.line)
            else:
                self.b.ret(self.lower_expr(stmt.value), line=stmt.line)
        elif isinstance(stmt, IfStmt):
            self.lower_if(stmt)
        elif isinstance(stmt, WhileStmt):
            self.lower_while(stmt)
        else:  # pragma: no cover - exhaustive
            raise self.error(f"unsupported statement {type(stmt).__name__}", stmt.line)

    def lower_if(self, stmt: IfStmt) -> None:
        cond = self.lower_expr(stmt.cond)
        then_label = self.b.fresh_label("Lthen")
        end_label = self.b.fresh_label("Lend")
        self.b.if_goto(cond, then_label, line=stmt.line)
        self.lower_body(stmt.else_body)
        self.b.goto(end_label, line=stmt.line)
        self.b.label(then_label, line=stmt.line)
        self.lower_body(stmt.then_body)
        self.b.label(end_label, line=stmt.line)

    def lower_while(self, stmt: WhileStmt) -> None:
        head = self.b.fresh_label("Lhead")
        end = self.b.fresh_label("Lend")
        self.b.label(head, line=stmt.line)
        cond = self.lower_expr(stmt.cond)
        negated = self.b.fresh("int", hint="n")
        self.b.method.append(UnaryOp(negated, "!", cond, line=stmt.line))
        self.b.if_goto(negated, end, line=stmt.line)
        self.lower_body(stmt.body)
        self.b.goto(head, line=stmt.line)
        self.b.label(end, line=stmt.line)

    def lower_assignment(self, stmt: AssignStmt) -> None:
        target = stmt.target
        if isinstance(target, Name):
            if self.local_type(target.ident) is not None:
                value = self.lower_expr(stmt.value, expected=self.local_type(target.ident))
                self.b.assign(target.ident, value, line=stmt.line)
                return
            # Implicit this.field / static field of the enclosing class.
            static_owner = self._static_field_owner(self.clazz.name, target.ident)
            if static_owner is not None:
                value = self.lower_expr(stmt.value)
                self.b.static_store(static_owner, target.ident, value, line=stmt.line)
                return
            owner = self._field_owner(self.clazz.name, target.ident)
            if owner is not None and not self.b.method.is_static:
                value = self.lower_expr(stmt.value)
                self.b.store("this", target.ident, value, line=stmt.line)
                return
            raise self.error(f"assignment to undeclared {target.ident!r}", stmt.line)
        if isinstance(target, FieldAccess):
            kind, payload = self.classify_chain(target)
            value = self.lower_expr(stmt.value)
            if kind == "static_field":
                class_name, field_name = payload
                self.b.static_store(class_name, field_name, value, line=stmt.line)
                return
            if kind == "instance_field":
                base_var, field_name = payload
                self.b.store(base_var, field_name, value, line=stmt.line)
                return
        raise self.error("invalid assignment target", stmt.line)

    # -- dotted-name classification -------------------------------------------------------

    def classify_chain(self, expr: FieldAccess):
        """Classify ``a.b.c`` into R-constants, static or instance fields.

        Returns ``(kind, payload)`` where kind is one of ``layout_id``,
        ``view_id``, ``static_field`` (class, field), or
        ``instance_field`` (lowered base var, field).
        """
        parts = self._flatten(expr)
        if parts is not None:
            if len(parts) == 3 and parts[0] == "R" and parts[1] == "layout":
                return "layout_id", parts[2]
            if len(parts) == 3 and parts[0] == "R" and parts[1] == "id":
                return "view_id", parts[2]
            if len(parts) == 3 and parts[0] == "R" and parts[1] == "menu":
                return "menu_id", parts[2]
            # A local variable shadows any class interpretation.
            if self.local_type(parts[0]) is not None:
                base_var = parts[0]
                for middle in parts[1:-1]:
                    base_var = self._lower_instance_load(base_var, middle, expr.line)
                return "instance_field", (base_var, parts[-1])
            # Longest prefix that names a class -> static field access.
            for split in range(len(parts) - 1, 0, -1):
                class_written = ".".join(parts[:split])
                class_name = self.resolver.try_resolve(class_written, self.unit)
                if class_name is None:
                    continue
                base: Optional[str] = None
                remaining = parts[split:]
                first = remaining[0]
                if len(remaining) == 1:
                    return "static_field", (class_name, first)
                base = self._lower_static_load(class_name, first, expr.line)
                for middle in remaining[1:-1]:
                    base = self._lower_instance_load(base, middle, expr.line)
                return "instance_field", (base, remaining[-1])
            raise self.error(f"cannot resolve name {'.'.join(parts)!r}", expr.line)
        # Base is a general expression.
        base_var = self.lower_expr(expr.base)
        return "instance_field", (base_var, expr.field_name)

    def _flatten(self, expr: Expr) -> Optional[List[str]]:
        """``a.b.c`` as identifier parts, or None if the base is complex."""
        parts: List[str] = []
        current = expr
        while isinstance(current, FieldAccess):
            parts.append(current.field_name)
            current = current.base
        if isinstance(current, Name):
            parts.append(current.ident)
            return list(reversed(parts))
        return None

    def _lower_instance_load(self, base_var: str, field_name: str, line: int) -> str:
        base_type = self.local_type(base_var) or "java.lang.Object"
        owner = self._field_owner(base_type, field_name)
        field_type = owner.fields[field_name].type_name if owner else "java.lang.Object"
        return self.b.load(base_var, field_name, type_name=field_type, line=line)

    def _lower_static_load(self, class_name: str, field_name: str, line: int) -> str:
        c = self.program.clazz(class_name)
        field_type = "java.lang.Object"
        if c is not None and field_name in c.fields:
            field_type = c.fields[field_name].type_name
        return self.b.static_load(class_name, field_name, type_name=field_type, line=line)

    # -- expressions -----------------------------------------------------------------------

    def lower_expr(
        self,
        expr: Expr,
        expected: Optional[str] = None,
        result_unused: bool = False,
    ) -> str:
        if isinstance(expr, IntLit):
            return self.b.const_int(expr.value, line=expr.line)
        if isinstance(expr, StringLit):
            return self.b.const_string(expr.value, line=expr.line)
        if isinstance(expr, BoolLit):
            return self.b.const_int(1 if expr.value else 0, line=expr.line)
        if isinstance(expr, NullLit):
            return self.b.const_null(line=expr.line)
        if isinstance(expr, ThisExpr):
            return self.b.this
        if isinstance(expr, Name):
            if self.local_type(expr.ident) is not None:
                return expr.ident
            # Static fields first (they shadow nothing; instance fields
            # are never static here), then implicit this.field.
            static_owner = self._static_field_owner(self.clazz.name, expr.ident)
            if static_owner is not None:
                return self._lower_static_load(static_owner, expr.ident, expr.line)
            owner = self._field_owner(self.clazz.name, expr.ident)
            if owner is not None and not self.b.method.is_static:
                return self._lower_instance_load("this", expr.ident, expr.line)
            raise self.error(f"unknown name {expr.ident!r}", expr.line)
        if isinstance(expr, FieldAccess):
            kind, payload = self.classify_chain(expr)
            if kind == "layout_id":
                return self.b.layout_id(payload, line=expr.line)
            if kind == "view_id":
                return self.b.view_id(payload, line=expr.line)
            if kind == "menu_id":
                return self.b.menu_id(payload, line=expr.line)
            if kind == "static_field":
                class_name, field_name = payload
                return self._lower_static_load(class_name, field_name, expr.line)
            base_var, field_name = payload
            return self._lower_instance_load(base_var, field_name, expr.line)
        if isinstance(expr, NewExpr):
            return self.lower_new(expr)
        if isinstance(expr, CastExpr):
            type_name = self.resolve_type(expr.type_name, expr.line)
            value = self.lower_expr(expr.expr)
            if type_name in _PRIMITIVES:
                return value  # primitive casts are identity in ALite
            return self.b.cast(type_name, value, line=expr.line)
        if isinstance(expr, BinaryExpr):
            a = self.lower_expr(expr.left)
            bvar = self.lower_expr(expr.right)
            result = self.b.fresh("int", hint="b")
            self.b.method.append(BinOp(result, expr.op, a, bvar, line=expr.line))
            return result
        if isinstance(expr, UnaryExpr):
            operand = self.lower_expr(expr.operand)
            result = self.b.fresh("int", hint="u")
            self.b.method.append(UnaryOp(result, expr.op, operand, line=expr.line))
            return result
        if isinstance(expr, Call):
            return self.lower_call(expr, result_unused=result_unused)
        raise self.error(f"unsupported expression {type(expr).__name__}", expr.line)

    def _static_field_owner(self, class_name: str, field_name: str) -> Optional[str]:
        current: Optional[str] = class_name
        while current is not None:
            c = self.program.clazz(current)
            if c is None:
                return None
            f = c.fields.get(field_name)
            if f is not None and f.is_static:
                return current
            current = c.superclass
        return None

    def lower_new(self, expr: NewExpr) -> str:
        type_name = self.resolve_type(expr.type_name, expr.line)
        var = self.b.new(type_name, line=expr.line)
        ctor = self._method_owner(type_name, "<init>", len(expr.args))
        owner = self.program.clazz(type_name)
        if ctor is not None and owner is not None and owner.is_application:
            args = [self.lower_expr(a) for a in expr.args]
            self.b.invoke(
                var, "<init>", args, class_name=type_name,
                kind=InvokeKind.SPECIAL, line=expr.line,
            )
        elif expr.args and owner is not None and owner.is_application:
            raise self.error(
                f"no constructor {type_name}(<{len(expr.args)} args>)", expr.line
            )
        return var

    def lower_call(self, expr: Call, result_unused: bool = False) -> str:
        args = None
        # Unqualified call: this.m(...) or a static method of this class.
        if expr.base is None:
            target = self._method_owner(self.clazz.name, expr.method, len(expr.args))
            if target is None:
                raise self.error(f"unknown method {expr.method!r}", expr.line)
            args = [self.lower_expr(a) for a in expr.args]
            lhs = None if result_unused else self._call_temp(target.return_type)
            if target.is_static:
                self.b.invoke_static(
                    target.class_name, expr.method, args, lhs=lhs, line=expr.line
                )
            else:
                if self.b.method.is_static:
                    raise self.error(
                        f"instance method {expr.method!r} called from static context",
                        expr.line,
                    )
                self.b.invoke(
                    "this", expr.method, args, lhs=lhs,
                    class_name=self.clazz.name, line=expr.line,
                )
            return lhs if lhs is not None else ""

        # Qualified: static call on a class, or instance call on a value.
        class_target = self._class_of_base(expr.base)
        if class_target is not None:
            args = [self.lower_expr(a) for a in expr.args]
            lhs = None if result_unused else self._call_temp_for(
                class_target, expr.method, len(expr.args)
            )
            self.b.invoke_static(class_target, expr.method, args, lhs=lhs, line=expr.line)
            return lhs if lhs is not None else ""


        base_var = self.lower_expr(expr.base)
        args = [self.lower_expr(a) for a in expr.args]
        base_type = self.local_type(base_var) or "java.lang.Object"
        lhs = None if result_unused else self._call_temp_for(
            base_type, expr.method, len(expr.args)
        )
        self.b.invoke(
            base_var, expr.method, args, lhs=lhs, class_name=base_type, line=expr.line
        )
        return lhs if lhs is not None else ""


    def _class_of_base(self, base: Expr) -> Optional[str]:
        """If the call base denotes a class (not a value), its name."""
        if isinstance(base, Name):
            if self.local_type(base.ident) is not None:
                return None
            return self.resolver.try_resolve(base.ident, self.unit)
        if isinstance(base, FieldAccess):
            parts = self._flatten(base)
            if parts is None or self.local_type(parts[0]) is not None:
                return None
            return self.resolver.try_resolve(".".join(parts), self.unit)
        return None

    def _call_temp(self, return_type: str) -> Optional[str]:
        if return_type == "void":
            return None
        return self.b.fresh(return_type, hint="c")

    def _call_temp_for(self, class_name: str, method: str, arity: int) -> Optional[str]:
        target = self._method_owner(class_name, method, arity)
        if target is not None:
            owner = self.program.clazz(target.class_name)
            if owner is not None and owner.is_application:
                return self._call_temp(target.return_type)
        if method in _PLATFORM_RETURNS:
            return self.b.fresh(_PLATFORM_RETURNS[method], hint="c")
        # Unknown platform method: assume a value is produced only when
        # the caller uses it; type Object.
        return self.b.fresh("java.lang.Object", hint="c")


class _Compiler:
    def __init__(self, units: List[CompilationUnit]) -> None:
        self.units = units
        self.program = Program()
        install_platform(self.program)
        self.resolver = _Resolver(set(self.program.classes))
        # The unit being compiled, whose path a LowerError gets.
        self.unit: Optional[CompilationUnit] = None

    def compile(self) -> Program:
        # Pass 1a: register every class name.
        decls: List[Tuple[CompilationUnit, ClassDecl, str]] = []
        for unit in self.units:
            self.unit = unit
            for decl in unit.classes:
                qualified = (
                    f"{unit.package}.{decl.name}" if unit.package else decl.name
                )
                if qualified in self.resolver.known:
                    raise LowerError(f"duplicate class {qualified!r}", decl.line)
                self.resolver.known.add(qualified)
                decls.append((unit, decl, qualified))
        # Pass 1b: create classes with resolved supertypes and members.
        lowering_queue: List[Tuple[CompilationUnit, ClassDecl, Clazz]] = []
        for unit, decl, qualified in decls:
            self.unit = unit
            superclass = "java.lang.Object"
            if decl.superclass is not None:
                superclass = self.resolver.resolve(decl.superclass, unit, decl.line)
            interfaces = [
                self.resolver.resolve(i, unit, decl.line) for i in decl.interfaces
            ]
            clazz = Clazz(
                qualified,
                superclass=superclass,
                interfaces=interfaces,
                is_interface=decl.is_interface,
            )
            for f in decl.fields:
                clazz.add_field(
                    Field(
                        f.name,
                        self.resolver.resolve(f.type_name, unit, f.line),
                        is_static=f.is_static,
                    )
                )
            for m in decl.methods:
                params = [
                    (pname, self.resolver.resolve(ptype, unit, m.line))
                    for ptype, pname in m.params
                ]
                return_type = (
                    "void"
                    if m.return_type == "void"
                    else self.resolver.resolve(m.return_type, unit, m.line)
                )
                method = Method(
                    m.name,
                    qualified,
                    params=params,
                    return_type=return_type,
                    is_static=m.is_static,
                    is_abstract=m.body is None,
                )
                clazz.add_method(method)
            self.program.add_class(clazz)
            lowering_queue.append((unit, decl, clazz))
        # Pass 2: lower bodies.
        for unit, decl, clazz in lowering_queue:
            self.unit = unit
            for m in decl.methods:
                if m.body is None:
                    continue
                method = clazz.method(m.name, len(m.params))
                assert method is not None
                lowerer = _MethodLowerer(self, unit, clazz, MethodBuilder(method))
                lowerer.lower_body(m.body)
        return self.program


def compile_sources(
    sources: Sequence[str], paths: Optional[Sequence[Optional[str]]] = None
) -> Program:
    """Compile ``.alite`` source texts into one ALite program.

    ``paths`` names each source in the frontend errors raised for it."""
    units: List[CompilationUnit] = []
    compiler, path = None, None
    try:
        for source, path in zip(sources, paths or [None] * len(sources)):
            units.append(parse_compilation_unit(source))
            units[-1].path = path
        compiler = _Compiler(units)
        return compiler.compile()
    except FrontendError as exc:
        # The file being parsed, or the unit being lowered.
        exc.path = compiler.unit.path if compiler and compiler.unit else path
        raise
