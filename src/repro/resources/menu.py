"""Menu resources: ``res/menu/*.xml`` definitions.

An options menu is a flat list of items (``<group>`` elements are
transparent), each with an optional ``R.id`` entry, a title, and an
optional declarative ``android:onClick`` handler — the menu counterpart
of layout definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.resources.xml_parser import LayoutXmlError, _attr, _parse_id, parse_android_xml


@dataclass(frozen=True)
class MenuItemDef:
    """One ``<item>`` of a menu definition."""

    id_name: Optional[str]
    title: Optional[str] = None
    on_click: Optional[str] = None


@dataclass
class MenuDef:
    """A named menu definition (one XML file)."""

    name: str
    items: List[MenuItemDef] = field(default_factory=list)

    def id_names(self) -> List[str]:
        return [item.id_name for item in self.items if item.id_name is not None]


def parse_menu_xml(name: str, text: str) -> MenuDef:
    """Parse one menu file. ``<group>`` children are flattened."""
    root = parse_android_xml(text)
    if root.tag != "menu":
        raise LayoutXmlError("menu file must have a <menu> root")
    menu = MenuDef(name=name)
    # Depth-first, items in document order, with a stack of child
    # iterators: a self-recursive closure would be a reference cycle.
    stack = [iter(root)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif child.tag == "item":
            menu.items.append(
                MenuItemDef(
                    id_name=_parse_id(_attr(child, "id")),
                    title=_attr(child, "title"),
                    on_click=_attr(child, "onClick"),
                )
            )
            stack.append(iter(child))  # <item> may nest a sub-<menu>.
        elif child.tag in ("group", "menu"):
            stack.append(iter(child))
        else:
            raise LayoutXmlError(f"unexpected element <{child.tag}>")
    return menu
