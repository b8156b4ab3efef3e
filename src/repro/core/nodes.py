"""Constraint-graph node kinds (Section 4.1 of the paper).

Nodes split into two families:

* **pointer nodes** hold sets of abstract values during the analysis:
  variables, fields, operation input ports, and operation nodes
  themselves (an operation node's set is its *output*);
* **value nodes** are the abstract values that flow: allocation sites,
  inflated views, activities, and layout/view ids. (Listener values are
  allocation sites of listener classes; activities and views may also
  act as listeners.)

All node classes are frozen, slotted dataclasses: hashable, comparable
by value, and without a per-instance ``__dict__``. Their hash is the
plain dataclass hash, recomputed through the nested fields
(``OpArg`` → ``OpNode`` → ``Site`` → ``MethodSig``) on every call and
never stored, so it is always the hash of the current process, even
for a node that was pickled in another. Nodes are hashed only at the
result boundary: the graph interns each node once to a dense int id
(:mod:`repro.core.graph`) and keeps flow edges, relationship edges and
their closure cache over ids, and the builder, the solver and the fact
order work on ids, so none of them hashes a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.ir.program import MethodSig
from repro.platform.api import OpKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.hierarchy.cha import ClassHierarchy


@dataclass(frozen=True, slots=True)
class Site:
    """A static program point: method, statement index, source line."""

    method: MethodSig
    index: int
    line: Optional[int] = None

    def __str__(self) -> str:
        if self.line is not None:
            return f"{self.method}:{self.line}"
        return f"{self.method}@{self.index}"


class Node:
    """Marker base class for all constraint-graph nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class VarNode(Node):
    """A local variable of a method (including ``this`` and parameters)."""

    method: MethodSig
    name: str

    def __str__(self) -> str:
        return f"{self.method.class_name.rsplit('.', 1)[-1]}.{self.method.name}${self.name}"


@dataclass(frozen=True, slots=True)
class FieldNode(Node):
    """An instance field, field-based: one node per field declaration."""

    class_name: str
    field_name: str

    def __str__(self) -> str:
        return f"{self.class_name.rsplit('.', 1)[-1]}.{self.field_name}"


@dataclass(frozen=True, slots=True)
class StaticFieldNode(Node):
    """A static field."""

    class_name: str
    field_name: str

    def __str__(self) -> str:
        return f"{self.class_name.rsplit('.', 1)[-1]}.{self.field_name}(static)"


@dataclass(frozen=True, slots=True)
class AllocNode(Node):
    """An allocation site ``x := new C``.

    ``ViewAlloc`` / ``Listener`` of the paper are the subsets whose
    ``class_name`` is a view class / implements a listener interface;
    the graph records those subsets at construction time.
    """

    site: Site
    class_name: str

    def __str__(self) -> str:
        simple = self.class_name.rsplit(".", 1)[-1]
        return f"{simple}_{self.site.line if self.site.line is not None else self.site.index}"


@dataclass(frozen=True, slots=True)
class ActivityNode(Node):
    """The platform-created instance(s) of an activity class."""

    class_name: str

    def __str__(self) -> str:
        return self.class_name.rsplit(".", 1)[-1]


@dataclass(frozen=True, slots=True)
class LayoutIdNode(Node):
    """An ``R.layout`` constant."""

    name: str
    value: int

    def __str__(self) -> str:
        return f"R.layout.{self.name}"


@dataclass(frozen=True, slots=True)
class ViewIdNode(Node):
    """An ``R.id`` constant."""

    name: str
    value: int

    def __str__(self) -> str:
        return f"R.id.{self.name}"


@dataclass(frozen=True, slots=True)
class MenuIdNode(Node):
    """An ``R.menu`` constant (menu extension)."""

    name: str
    value: int

    def __str__(self) -> str:
        return f"R.menu.{self.name}"


@dataclass(frozen=True, slots=True)
class MenuItemNode(Node):
    """A menu item created by inflating a menu at one site (extension).

    Mirrors :class:`InflViewNode`: a fresh family per (site, menu).
    """

    op_site: Site
    menu: str
    index: int
    id_name: Optional[str]

    def __str__(self) -> str:
        where = self.op_site.line if self.op_site.line is not None else self.op_site.index
        suffix = self.id_name or str(self.index)
        return f"MenuItem_{where}.{suffix}"


@dataclass(frozen=True, slots=True)
class OpNode(Node):
    """An operation node for one classified call site.

    The node doubles as the operation's *output* pointer node (the set
    of views produced by ``FindView``/``Inflate1`` results flows from
    here to the call's left-hand side).
    """

    kind: OpKind
    site: Site

    def __str__(self) -> str:
        return f"{self.kind.value}_{self.site.line if self.site.line is not None else self.site.index}"


@dataclass(frozen=True, slots=True)
class OpRecv(Node):
    """The receiver input port of an operation node."""

    op: OpNode

    def __str__(self) -> str:
        return f"{self.op}.recv"


@dataclass(frozen=True, slots=True)
class OpArg(Node):
    """An argument input port of an operation node."""

    op: OpNode
    index: int

    def __str__(self) -> str:
        return f"{self.op}.arg{self.index}"


@dataclass(frozen=True, slots=True)
class InflViewNode(Node):
    """A view created by inflating one layout node at one inflation site.

    ``path`` is the preorder child-index path from the layout root
    (``()`` for the root); a fresh family of these nodes exists per
    (operation site, layout) pair, matching the paper's "fresh set of
    graph nodes at each inflation site".
    """

    op_site: Site
    layout: str
    path: Tuple[int, ...]
    view_class: str
    id_name: Optional[str]

    def __str__(self) -> str:
        simple = self.view_class.rsplit(".", 1)[-1]
        where = self.op_site.line if self.op_site.line is not None else self.op_site.index
        suffix = ".".join(str(i + 1) for i in (0,) + self.path)
        return f"{simple}_{where}.{suffix}"


# Abstract values that propagate through the flow edges.
ValueNode = Union[
    AllocNode,
    ActivityNode,
    LayoutIdNode,
    ViewIdNode,
    MenuIdNode,
    MenuItemNode,
    InflViewNode,
]

# Pointer nodes that hold value sets.
PointerNode = Union[VarNode, FieldNode, StaticFieldNode, OpNode, OpRecv, OpArg]


def value_class_name(value: ValueNode) -> Optional[str]:
    """Run-time class of an abstract value, when it has one."""
    if isinstance(value, (AllocNode, ActivityNode)):
        return value.class_name
    if isinstance(value, InflViewNode):
        return value.view_class
    if isinstance(value, MenuItemNode):
        return "android.view.MenuItem"
    return None


def value_is_a(hierarchy: "ClassHierarchy", value: ValueNode, class_name: str) -> bool:
    """Is ``value`` an instance of (a subtype of) ``class_name``? Values
    without a run-time class (ids) are instances of nothing. The solver,
    result queries, lint rules and witnesses all share this test."""
    cn = value_class_name(value)
    return cn is not None and hierarchy.is_subtype(cn, class_name)


def is_activity_like(hierarchy: "ClassHierarchy", value: ValueNode) -> bool:
    """Activities and dialogs both hold root view hierarchies."""
    if isinstance(value, ActivityNode):
        return True
    return isinstance(value, AllocNode) and (
        hierarchy.is_activity_class(value.class_name) or hierarchy.is_dialog_class(value.class_name)
    )
