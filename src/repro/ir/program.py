"""Program model: classes, fields, methods, and whole programs.

Mirrors the paper's setting (Section 3.1): a program is a set of
classes, some of which are *application* classes with analyzable bodies
and some of which are *platform* classes whose bodies are opaque — the
analysis models platform behaviour through the semantic rules instead of
analyzing platform code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.ir.statements import Statement


@dataclass(frozen=True, slots=True)
class MethodSig:
    """A method signature: owning class, name, and parameter arity.

    ALite does not overload on parameter *types*, only on arity, which
    is sufficient for the Android APIs the analysis models (e.g. the
    one-argument ``setContentView(int)`` vs ``setContentView(View)`` are
    distinguished by argument static type at the call site, not by
    signature).
    """

    class_name: str
    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.class_name}.{self.name}/{self.arity}"


@dataclass
class Field:
    """An instance or static field."""

    name: str
    type_name: str
    is_static: bool = False

    def __str__(self) -> str:
        prefix = "static " if self.is_static else ""
        return f"{prefix}{self.type_name} {self.name}"


@dataclass
class Local:
    """A local variable (including parameters and ``this``)."""

    name: str
    type_name: str


class Method:
    """A method: signature, typed locals, and a statement list.

    Parameters are locals whose names are listed in ``param_names``;
    instance methods additionally have the implicit local ``this``.
    """

    def __init__(
        self,
        name: str,
        class_name: str,
        params: Iterable[Tuple[str, str]] = (),
        return_type: str = "void",
        is_static: bool = False,
        is_abstract: bool = False,
    ) -> None:
        self.name = name
        self.class_name = class_name
        self.return_type = return_type
        self.is_static = is_static
        self.is_abstract = is_abstract
        self.locals: Dict[str, Local] = {}
        self.param_names: List[str] = []
        self.body: List[Statement] = []
        if not is_static:
            self.locals["this"] = Local("this", class_name)
        for pname, ptype in params:
            self.add_param(pname, ptype)

    @property
    def sig(self) -> MethodSig:
        return MethodSig(self.class_name, self.name, len(self.param_names))

    @property
    def is_instance(self) -> bool:
        return not self.is_static

    def add_param(self, name: str, type_name: str) -> None:
        if name in self.locals:
            raise ValueError(f"duplicate local {name!r} in {self.sig}")
        self.locals[name] = Local(name, type_name)
        self.param_names.append(name)

    def add_local(self, name: str, type_name: str) -> None:
        if name in self.locals:
            raise ValueError(f"duplicate local {name!r} in {self.sig}")
        self.locals[name] = Local(name, type_name)

    def local_type(self, name: str) -> str:
        return self.locals[name].type_name

    def append(self, stmt: Statement) -> None:
        self.body.append(stmt)

    def __repr__(self) -> str:
        return f"<Method {self.sig}>"


class Clazz:
    """A class or interface.

    ``is_platform`` marks Android/Java platform classes: their method
    bodies are not analyzed (the analysis models their semantics via the
    operation rules of Section 3.2 instead).
    """

    def __init__(
        self,
        name: str,
        superclass: Optional[str] = "java.lang.Object",
        interfaces: Iterable[str] = (),
        is_interface: bool = False,
        is_platform: bool = False,
    ) -> None:
        self.name = name
        self.superclass = None if name == "java.lang.Object" else superclass
        self.interfaces: Tuple[str, ...] = tuple(interfaces)
        self.is_interface = is_interface
        self.is_platform = is_platform
        self.fields: Dict[str, Field] = {}
        self.methods: Dict[Tuple[str, int], Method] = {}

    @property
    def is_application(self) -> bool:
        return not self.is_platform

    def add_field(self, f: Field) -> None:
        if f.name in self.fields:
            raise ValueError(f"duplicate field {f.name!r} in {self.name}")
        self.fields[f.name] = f

    def add_method(self, m: Method) -> None:
        key = (m.name, len(m.param_names))
        if key in self.methods:
            raise ValueError(f"duplicate method {m.name}/{key[1]} in {self.name}")
        self.methods[key] = m

    def method(self, name: str, arity: int) -> Optional[Method]:
        return self.methods.get((name, arity))

    def __repr__(self) -> str:
        kind = "interface" if self.is_interface else "class"
        return f"<{kind} {self.name}>"


class Program:
    """A whole ALite program: a closed set of classes.

    Lookup helpers cover the common queries the analyses need:
    class-by-name, method-by-signature, and iteration over application
    methods (the paper considers *all* application methods executable).
    """

    def __init__(self) -> None:
        self.classes: Dict[str, Clazz] = {}

    def add_class(self, c: Clazz) -> Clazz:
        if c.name in self.classes:
            raise ValueError(f"duplicate class {c.name!r}")
        self.classes[c.name] = c
        return c

    def clazz(self, name: str) -> Optional[Clazz]:
        return self.classes.get(name)

    def require_class(self, name: str) -> Clazz:
        c = self.classes.get(name)
        if c is None:
            raise KeyError(f"unknown class {name!r}")
        return c

    def method(self, class_name: str, name: str, arity: int) -> Optional[Method]:
        c = self.classes.get(class_name)
        if c is None:
            return None
        return c.method(name, arity)

    def application_classes(self) -> Iterator[Clazz]:
        for c in self.classes.values():
            if c.is_application:
                yield c

    def application_methods(self) -> Iterator[Method]:
        for c in self.application_classes():
            yield from c.methods.values()

    def all_methods(self) -> Iterator[Method]:
        for c in self.classes.values():
            yield from c.methods.values()

    def statement_count(self) -> int:
        return sum(len(m.body) for m in self.application_methods())

    def __repr__(self) -> str:
        return f"<Program with {len(self.classes)} classes>"
