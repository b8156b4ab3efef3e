"""Runtime values, heap objects, and creation tags.

Every heap object carries a *creation tag* identifying the static
abstraction it corresponds to — the bridge between the concrete
semantics and the constraint graph used by the soundness checker:

* ``AllocTag(site)`` — created by ``new`` at a program point; maps to
  the :class:`~repro.core.nodes.AllocNode` of that site;
* ``InflTag(op_site, layout, path)`` — created by inflating a layout
  node; maps to the corresponding
  :class:`~repro.core.nodes.InflViewNode`;
* ``ActivityTag(class_name)`` — a platform-created activity instance;
  maps to the :class:`~repro.core.nodes.ActivityNode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.nodes import Site


@dataclass(frozen=True)
class AllocTag:
    site: Site

    def __str__(self) -> str:
        return f"alloc@{self.site}"


@dataclass(frozen=True)
class InflTag:
    op_site: Site
    layout: str
    path: Tuple[int, ...]

    def __str__(self) -> str:
        return f"infl@{self.op_site}:{self.layout}/{self.path}"


@dataclass(frozen=True)
class MenuItemTag:
    """A menu item created by inflating a menu at a site (extension)."""

    op_site: Site
    menu: str
    index: int

    def __str__(self) -> str:
        return f"menuitem@{self.op_site}:{self.menu}/{self.index}"


@dataclass(frozen=True)
class FrameworkTag:
    """A platform-created helper object (e.g. the Menu passed to
    onCreateOptionsMenu) with no static abstraction of its own."""

    label: str

    def __str__(self) -> str:
        return f"framework:{self.label}"


@dataclass(frozen=True)
class ActivityTag:
    class_name: str

    def __str__(self) -> str:
        return f"activity:{self.class_name}"


CreationTag = Union[AllocTag, InflTag, ActivityTag, MenuItemTag, FrameworkTag]


class Obj:
    """A heap object: class, ordinary fields, and the artificial
    GUI-semantics fields of Section 3 (``vid``, ``children``,
    ``listeners``, ``root``, and a ``parent`` back-pointer)."""

    _next_id = 1

    def __init__(self, class_name: str, tag: CreationTag) -> None:
        self.oid = Obj._next_id
        Obj._next_id += 1
        self.class_name = class_name
        self.tag = tag
        self.fields: Dict[str, object] = {}
        # Artificial fields (only meaningful for views / activities).
        self.vid: Optional[int] = None
        self.children: List["Obj"] = []
        self.parent: Optional["Obj"] = None
        self.listeners: Dict[str, List["Obj"]] = {}
        self.root: Optional["Obj"] = None

    def add_child(self, child: "Obj") -> None:
        if child not in self.children:
            self.children.append(child)
        child.parent = self

    def add_listener(self, event: str, listener: "Obj") -> None:
        bucket = self.listeners.setdefault(event, [])
        if listener not in bucket:
            bucket.append(listener)

    def descendants(self, include_self: bool = True):
        """Preorder walk of the view subtree (cycle-safe)."""
        seen = set()
        stack = [self]
        while stack:
            obj = stack.pop()
            if obj.oid in seen:
                continue
            seen.add(obj.oid)
            if include_self or obj is not self:
                yield obj
            stack.extend(reversed(obj.children))

    def find_view_by_id(self, vid: int) -> Optional["Obj"]:
        """The paper's ``find`` function: first descendant (including
        self) whose ``vid`` matches."""
        for obj in self.descendants():
            if obj.vid == vid:
                return obj
        return None

    def __repr__(self) -> str:
        simple = self.class_name.rsplit(".", 1)[-1]
        return f"<obj#{self.oid} {simple}>"


class Heap:
    """The object store plus static fields."""

    def __init__(self) -> None:
        self.objects: List[Obj] = []
        self.statics: Dict[Tuple[str, str], object] = {}

    def allocate(self, class_name: str, tag: CreationTag) -> Obj:
        obj = Obj(class_name, tag)
        self.objects.append(obj)
        return obj

    def static_get(self, class_name: str, field_name: str) -> object:
        return self.statics.get((class_name, field_name))

    def static_set(self, class_name: str, field_name: str, value: object) -> None:
        self.statics[(class_name, field_name)] = value
