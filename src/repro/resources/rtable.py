"""The resource table: the generated ``R.layout`` / ``R.id`` classes.

Android's aapt assigns each layout and each view id a unique integer
constant in an auto-generated class ``R`` (Section 2: "For each layout,
there is a unique integer id defined by a final static field"). The
analysis tracks these integers symbolically; this table is the
bidirectional mapping between symbolic names and integer values, plus
the registry of layout trees.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.resources.layout import LayoutTree
from repro.resources.menu import MenuDef
from repro.resources.xml_parser import expand_includes

LAYOUT_ID_BASE = 0x7F030000  # matches aapt's historical type ordering
VIEW_ID_BASE = 0x7F080000
MENU_ID_BASE = 0x7F0C0000


class ResourceTable:
    """Layouts and ids of one application.

    Layout registration expands ``<include>``/``<merge>`` immediately
    (against the layouts registered so far plus any registered later —
    expansion is re-run lazily until first use, so registration order
    does not matter).
    """

    def __init__(self) -> None:
        self._raw_layouts: Dict[str, LayoutTree] = {}
        self._expanded: Dict[str, LayoutTree] = {}
        self._layout_ids: Dict[str, int] = {}
        self._view_ids: Dict[str, int] = {}
        self._layout_names_by_id: Dict[int, str] = {}
        self._view_names_by_id: Dict[int, str] = {}
        self._menus: Dict[str, "MenuDef"] = {}
        self._menu_ids: Dict[str, int] = {}
        self._menu_names_by_id: Dict[int, str] = {}

    # -- layouts -----------------------------------------------------------

    def add_layout(self, tree: LayoutTree) -> int:
        """Register a layout tree; returns its ``R.layout`` constant."""
        if tree.name in self._raw_layouts:
            raise ValueError(f"duplicate layout {tree.name!r}")
        self._raw_layouts[tree.name] = tree
        self._expanded.clear()  # new layout may satisfy pending includes
        lid = LAYOUT_ID_BASE + len(self._layout_ids)
        self._layout_ids[tree.name] = lid
        self._layout_names_by_id[lid] = tree.name
        return lid

    def layout(self, name: str) -> LayoutTree:
        """The fully-expanded tree for layout ``name``."""
        if name not in self._raw_layouts:
            raise KeyError(f"unknown layout {name!r}")
        if name not in self._expanded:
            expanded = expand_includes(
                self._raw_layouts[name], self._raw_layouts.__getitem__
            )
            self._expanded[name] = expanded
            for id_name in expanded.id_names():
                self.view_id(id_name)
        return self._expanded[name]

    def layout_names(self) -> List[str]:
        return list(self._raw_layouts)

    def layouts(self) -> Iterator[LayoutTree]:
        for name in self._raw_layouts:
            yield self.layout(name)

    def has_layout(self, name: str) -> bool:
        return name in self._raw_layouts

    # -- ids ----------------------------------------------------------------

    def layout_id(self, name: str) -> int:
        """``R.layout.name`` — the layout must exist."""
        if name not in self._layout_ids:
            raise KeyError(f"unknown layout {name!r}")
        return self._layout_ids[name]

    def view_id(self, name: str) -> int:
        """``R.id.name`` — allocated on first use, like aapt's ``@+id``."""
        if name not in self._view_ids:
            vid = VIEW_ID_BASE + len(self._view_ids)
            self._view_ids[name] = vid
            self._view_names_by_id[vid] = name
        return self._view_ids[name]

    def layout_name_of(self, value: int) -> Optional[str]:
        return self._layout_names_by_id.get(value)

    def view_id_name_of(self, value: int) -> Optional[str]:
        return self._view_names_by_id.get(value)

    def view_id_names(self) -> List[str]:
        # Force expansion of every layout so @+id declarations are in.
        for name in list(self._raw_layouts):
            self.layout(name)
        return list(self._view_ids)

    def freeze_ids(self) -> None:
        """Allocate ids for every layout-declared view id eagerly."""
        self.view_id_names()

    # -- menus (extension) -----------------------------------------------------

    def add_menu(self, menu: "MenuDef") -> int:
        """Register a menu definition; returns its ``R.menu`` constant."""
        if menu.name in self._menus:
            raise ValueError(f"duplicate menu {menu.name!r}")
        self._menus[menu.name] = menu
        mid = MENU_ID_BASE + len(self._menu_ids)
        self._menu_ids[menu.name] = mid
        self._menu_names_by_id[mid] = menu.name
        for id_name in menu.id_names():
            self.view_id(id_name)  # item ids live in R.id
        return mid

    def menu(self, name: str) -> "MenuDef":
        if name not in self._menus:
            raise KeyError(f"unknown menu {name!r}")
        return self._menus[name]

    def has_menu(self, name: str) -> bool:
        return name in self._menus

    def menu_id(self, name: str) -> int:
        if name not in self._menu_ids:
            raise KeyError(f"unknown menu {name!r}")
        return self._menu_ids[name]

    def menu_name_of(self, value: int) -> Optional[str]:
        return self._menu_names_by_id.get(value)

    def menu_names(self) -> List[str]:
        return list(self._menus)

    # -- statistics (Table 1 "ids" column) -----------------------------------

    def layout_count(self) -> int:
        return len(self._layout_ids)

    def view_id_count(self) -> int:
        self.freeze_ids()
        return len(self._view_ids)
