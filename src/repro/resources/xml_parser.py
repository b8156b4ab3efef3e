"""Parser for the Android layout-XML dialect.

Supports the layout features the paper's modelled apps rely on:

* element tags naming view classes — short widget names
  (``TextView``) resolve to ``android.widget.*`` / ``android.view.*``,
  dotted tags are taken as fully-qualified application view classes;
* ``android:id="@+id/name"`` (and ``@id/name``) view ids;
* ``android:onClick="method"`` declarative click handlers;
* ``<include layout="@layout/other"/>`` composition;
* ``<merge>`` roots whose children are spliced into the include site.

Parsing uses :mod:`xml.etree.ElementTree`; no third-party dependency.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Callable, Dict, List, Optional, Set

from repro.errors import ReproError
from repro.resources.layout import LayoutNode, LayoutTree

ANDROID_NS = "http://schemas.android.com/apk/res/android"

# Short names resolvable without a package prefix, mirroring the
# framework's LayoutInflater lookup order (android.view then
# android.widget then android.webkit).
_SHORT_NAME_PACKAGES = ("android.view", "android.widget", "android.webkit")


class LayoutXmlError(ReproError):
    """Raised for malformed resource XML or unresolvable references."""


_ROOT_TAG_RE = re.compile(r"<([A-Za-z_][\w.$-]*)")

# The most views one layout may expand to. Each <include> copies the
# included layout, so k small files that each include the next twice
# expand to 2^k views. The largest expansion in the corpus and the
# example projects is 32 views.
MAX_EXPANDED_VIEWS = 10_000


def parse_android_xml(text: str) -> ET.Element:
    """Parse XML, tolerating a missing ``xmlns:android`` declaration.

    Real resource files always declare the namespace on the root
    element; hand-written fixtures frequently omit it. When the
    ``android:`` prefix is used unbound, the declaration is injected
    into the root element and parsing is retried. Malformed XML raises
    :class:`LayoutXmlError` at expat's line and 1-based column in
    ``text``, the text before any injection.
    """
    declaration = f' xmlns:android="{ANDROID_NS}"'
    injected_at = None
    try:
        try:
            return ET.fromstring(text)
        except ET.ParseError:
            match = _ROOT_TAG_RE.search(text)
            if "android:" not in text or declaration[1:] in text or match is None:
                raise
            offset = match.end()
            line_start = text.rfind("\n", 0, offset) + 1
            injected_at = (text.count("\n", 0, offset) + 1, offset - line_start)
            return ET.fromstring(text[:offset] + declaration + text[offset:])
    except ET.ParseError as exc:
        line, column = exc.position
        if injected_at is not None and line == injected_at[0]:
            if column >= injected_at[1] + len(declaration):
                column -= len(declaration)
        # The location moves from expat's ": line L, column C" suffix to fields.
        reason = str(exc).rsplit(": line ", 1)[0]
        raise LayoutXmlError(f"XML parse error: {reason}", line, column + 1) from None


def _attr(elem: ET.Element, name: str) -> Optional[str]:
    """Read attribute ``android:name`` tolerating both namespaced and
    bare spellings (tests and hand-written fixtures use the latter)."""
    value = elem.get(f"{{{ANDROID_NS}}}{name}")
    if value is None:
        value = elem.get(f"android:{name}")
    if value is None:
        value = elem.get(name)
    return value


def _parse_id(raw: Optional[str]) -> Optional[str]:
    if raw is None:
        return None
    for prefix in ("@+id/", "@id/", "@android:id/"):
        if raw.startswith(prefix):
            name = raw[len(prefix):]
            if not name:
                raise LayoutXmlError(f"empty id reference {raw!r}")
            return name
    raise LayoutXmlError(f"malformed id reference {raw!r}")


def _parse_layout_ref(raw: Optional[str]) -> str:
    if raw is None:
        raise LayoutXmlError("<include> requires a layout attribute")
    if not raw.startswith("@layout/") or len(raw) == len("@layout/"):
        raise LayoutXmlError(f"malformed layout reference {raw!r}")
    return raw[len("@layout/"):]


def resolve_view_class(
    tag: str, known_classes: Optional[Set[str]] = None
) -> str:
    """Map an XML tag to a fully-qualified view class name."""
    if "." in tag:
        return tag
    if tag == "view":
        return "android.view.View"
    if known_classes is not None:
        for pkg in _SHORT_NAME_PACKAGES:
            candidate = f"{pkg}.{tag}"
            if candidate in known_classes:
                return candidate
        raise LayoutXmlError(f"unknown widget tag {tag!r}")
    # Without a class universe, default to android.widget (the common
    # case) except for the two android.view widgets.
    if tag in ("View", "ViewGroup", "SurfaceView", "TextureView"):
        return f"android.view.{tag}"
    return f"android.widget.{tag}"


def _parse_element(elem: ET.Element, known_classes: Optional[Set[str]]) -> LayoutNode:
    tag = elem.tag
    if tag == "include":
        ref = _parse_layout_ref(_attr(elem, "layout"))
        node = LayoutNode(view_class="<include>", include=ref)
        # An <include> may override the included root's id.
        node.id_name = _parse_id(_attr(elem, "id"))
        return node
    if tag == "merge":
        node = LayoutNode(view_class="<merge>")
    else:
        node = LayoutNode(
            view_class=resolve_view_class(tag, known_classes),
            id_name=_parse_id(_attr(elem, "id")),
            on_click=_attr(elem, "onClick"),
        )
    for child in elem:
        node.add_child(_parse_element(child, known_classes))
    return node


def parse_layout_xml(
    name: str, text: str, known_classes: Optional[Set[str]] = None
) -> LayoutTree:
    """Parse one layout file's text into an (unexpanded) layout tree.

    ``<include>`` nodes remain as placeholders; call
    :func:`expand_includes` (or register the tree with a
    :class:`~repro.resources.rtable.ResourceTable`, which does it) once
    all referenced layouts are available.
    """
    root = _parse_element(parse_android_xml(text), known_classes)
    if root.include is not None:
        raise LayoutXmlError("<include> cannot be the root element")
    return LayoutTree(name=name, root=root)


class _ViewBudget:
    """The views one :func:`expand_includes` call may still copy."""

    __slots__ = ("layout", "left")

    def __init__(self, layout: str) -> None:
        self.layout = layout
        self.left = MAX_EXPANDED_VIEWS

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise LayoutXmlError(
                f"layout {self.layout!r} expands to more than "
                f"{MAX_EXPANDED_VIEWS} views"
            )


def _expand_tree(
    tree: LayoutTree,
    lookup: Callable[[str], LayoutTree],
    active: Set[str],
    budget: _ViewBudget,
) -> List[LayoutNode]:
    """Expanded replacement list for a tree's root (merge roots splice)."""
    if tree.name in active:
        chain = " -> ".join(sorted(active)) + f" -> {tree.name}"
        raise LayoutXmlError(f"include cycle involving {tree.name!r}: {chain}")
    active = active | {tree.name}
    root = tree.root
    if root.view_class == "<merge>":
        out: List[LayoutNode] = []
        for child in root.children:
            out.extend(_expand_node(child, tree.name, lookup, active, budget))
        return out
    return _expand_node(root, tree.name, lookup, active, budget)


def _expand_node(
    node: LayoutNode,
    layout_name: str,
    lookup: Callable[[str], LayoutTree],
    active: Set[str],
    budget: _ViewBudget,
) -> List[LayoutNode]:
    if node.include is not None:
        try:
            included = lookup(node.include)
        except KeyError:
            # Named because the error is located at the layout being
            # expanded, which may include this one.
            raise LayoutXmlError(
                f"<include> in {layout_name!r} references unknown layout "
                f"{node.include!r}"
            ) from None
        roots = _expand_tree(included, lookup, active, budget)
        if len(roots) == 1 and node.id_name is not None:
            # <include> may override the included root's id.
            roots[0].id_name = node.id_name
        return roots
    budget.spend()
    copy = LayoutNode(
        view_class=node.view_class, id_name=node.id_name, on_click=node.on_click
    )
    for child in node.children:
        copy.children.extend(_expand_node(child, layout_name, lookup, active, budget))
    return [copy]


def expand_includes(
    tree: LayoutTree,
    lookup: Callable[[str], LayoutTree],
    _active: Optional[Set[str]] = None,
) -> LayoutTree:
    """Resolve ``<include>`` and ``<merge>`` into a plain view tree.

    ``lookup`` maps layout names to their (possibly unexpanded) trees.
    Include cycles are detected and reported. The returned tree is a
    deep copy; input trees are never mutated. A root ``<merge>``
    inflated standalone behaves like a transparent FrameLayout wrapper
    (Android would attach its children to the inflation parent).
    Expanding to more than :data:`MAX_EXPANDED_VIEWS` views raises
    :class:`LayoutXmlError`.
    """
    roots = _expand_tree(tree, lookup, set(_active or ()), _ViewBudget(tree.name))
    if len(roots) == 1 and tree.root.view_class != "<merge>":
        return LayoutTree(name=tree.name, root=roots[0])
    wrapper = LayoutNode(view_class="android.widget.FrameLayout")
    wrapper.children.extend(roots)
    return LayoutTree(name=tree.name, root=wrapper)
