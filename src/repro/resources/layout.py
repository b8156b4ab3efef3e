"""Layout trees: the static shape of inflatable view hierarchies.

A layout definition is "a set of layout edges that form a rooted tree"
over nodes ``(v, id)`` where ``v`` is a view class and ``id`` an
optional view id (Section 3.2.1). ``NO_ID`` stands for the paper's
special ``no_id`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

NO_ID: Optional[str] = None  # symbolic name for "this node has no view id"


@dataclass
class LayoutNode:
    """One node of a layout tree.

    ``view_class`` is a fully-qualified class name; ``id_name`` the
    symbolic view id (the ``f`` of ``R.id.f``) or ``None``;
    ``on_click`` the optional ``android:onClick`` handler method name;
    ``include`` marks nodes produced from ``<include>`` before
    expansion (the XML parser resolves these away).
    """

    view_class: str
    id_name: Optional[str] = NO_ID
    children: List["LayoutNode"] = field(default_factory=list)
    on_click: Optional[str] = None
    include: Optional[str] = None

    def add_child(self, child: "LayoutNode") -> "LayoutNode":
        self.children.append(child)
        return child

    def walk(self) -> Iterator[Tuple["LayoutNode", Optional["LayoutNode"]]]:
        """Yield ``(node, parent)`` pairs in preorder."""
        stack: List[Tuple[LayoutNode, Optional[LayoutNode]]] = [(self, None)]
        while stack:
            node, parent = stack.pop()
            yield node, parent
            for child in reversed(node.children):
                stack.append((child, node))

    def size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        return sum(1 for _ in self.walk())

    def find_by_id(self, id_name: str) -> Optional["LayoutNode"]:
        """First node in preorder with the given view id, else None."""
        for node, _parent in self.walk():
            if node.id_name == id_name:
                return node
        return None

    def __repr__(self) -> str:
        suffix = f" id={self.id_name}" if self.id_name else ""
        return f"<LayoutNode {self.view_class}{suffix} kids={len(self.children)}>"


@dataclass
class LayoutTree:
    """A named layout definition (one XML file)."""

    name: str
    root: LayoutNode

    def size(self) -> int:
        return self.root.size()

    def id_names(self) -> List[str]:
        """All view id names declared in this layout, in preorder."""
        return [
            node.id_name
            for node, _parent in self.root.walk()
            if node.id_name is not None
        ]

    def nodes(self) -> List[LayoutNode]:
        return [node for node, _parent in self.root.walk()]

    def edges(self) -> List[Tuple[LayoutNode, LayoutNode]]:
        """Parent-child layout edges, in preorder of the child."""
        return [
            (parent, node)
            for node, parent in self.root.walk()
            if parent is not None
        ]
