"""Android resource model: XML layouts, the R table, and the manifest.

Layout definitions are central to the paper (Section 3.2.1): they are
trees of ``(view class, view id)`` nodes whose inflation creates view
hierarchies. This package models layout trees, parses an Android-layout
XML dialect (``@+id/`` ids, ``<include>``, ``<merge>``,
``android:onClick``), assigns the integer constants of the generated
``R.layout`` / ``R.id`` classes, and models the manifest (which classes
are activities, which one is the launcher).
"""

from repro.resources.layout import LayoutNode, LayoutTree, NO_ID
from repro.resources.rtable import ResourceTable, LAYOUT_ID_BASE, VIEW_ID_BASE
from repro.resources.xml_parser import (
    LayoutXmlError,
    parse_layout_xml,
)
from repro.resources.manifest import Manifest

__all__ = [
    "LAYOUT_ID_BASE",
    "LayoutNode",
    "LayoutTree",
    "LayoutXmlError",
    "Manifest",
    "NO_ID",
    "ResourceTable",
    "VIEW_ID_BASE",
    "parse_layout_xml",
]
