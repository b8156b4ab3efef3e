"""Whole-application loading: sources + layouts + manifest → AndroidApp.

Directory convention (a trimmed Android project layout):

.. code-block:: text

    myapp/
      AndroidManifest.xml     (optional)
      src/**/*.alite          (Java-subset sources)
      res/layout/*.xml        (layout definitions)
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.app import AndroidApp, SourceFile
from repro.frontend.lowering import compile_sources
from repro.hierarchy.cha import ClassHierarchy
from repro.resources.manifest import Manifest, parse_manifest_xml
from repro.resources.menu import parse_menu_xml
from repro.resources.rtable import ResourceTable
from repro.resources.xml_parser import parse_layout_xml


def load_app_from_sources(
    name: str,
    sources: Sequence[str],
    layouts: Optional[Dict[str, str]] = None,
    manifest_xml: Optional[str] = None,
    menus: Optional[Dict[str, str]] = None,
    source_paths: Optional[Sequence[str]] = None,
) -> AndroidApp:
    """Build an app from in-memory source and layout texts.

    ``layouts`` maps layout names to XML texts (``menus`` likewise for
    menu resources). When no manifest is given, every activity subclass
    is declared, first one as launcher. ``source_paths``, when given,
    names each source text (project-relative) for source-level clients
    like lint suppressions; otherwise synthetic names are used.
    """
    if source_paths is not None and len(source_paths) != len(sources):
        # zip() would silently drop the unmatched tail, leaving lint
        # suppressions and SARIF locations pointing at the wrong files.
        raise ValueError(
            f"source_paths has {len(source_paths)} entries for "
            f"{len(sources)} sources; lengths must match"
        )
    program = compile_sources(list(sources), source_paths)
    if source_paths is None:
        source_paths = [f"<memory:{i}>" for i in range(len(sources))]
    source_files = [
        SourceFile(path=p, text=t) for p, t in zip(source_paths, sources)
    ]
    resources = ResourceTable()
    for layout_name, xml in (layouts or {}).items():
        resources.add_layout(parse_layout_xml(layout_name, xml))
    for menu_name, xml in (menus or {}).items():
        resources.add_menu(parse_menu_xml(menu_name, xml))
    resources.freeze_ids()

    if manifest_xml is not None:
        manifest = parse_manifest_xml(manifest_xml)
    else:
        manifest = Manifest(package=name)
        hierarchy = ClassHierarchy(program)
        for clazz in program.application_classes():
            if hierarchy.is_activity_class(clazz.name) and not clazz.is_interface:
                manifest.add_activity(clazz.name, launcher=not manifest.activities)
    return AndroidApp(
        name=name,
        program=program,
        resources=resources,
        manifest=manifest,
        sources=source_files,
    )


def load_app_from_dir(path: str, name: Optional[str] = None) -> AndroidApp:
    """Load a trimmed Android project directory into an app."""
    if name is None:
        name = os.path.basename(os.path.abspath(path))
    sources: List[str] = []
    source_paths: List[str] = []
    src_root = os.path.join(path, "src")
    if os.path.isdir(src_root):
        for dirpath, dirs, files in os.walk(src_root):
            # os.walk yields directories in filesystem order; sorting in
            # place fixes the traversal so source order (hence synthetic
            # paths, node ids, and goldens) is filesystem-independent.
            dirs.sort()
            for filename in sorted(files):
                if filename.endswith((".alite", ".java")):
                    full = os.path.join(dirpath, filename)
                    with open(full, encoding="utf-8") as f:
                        sources.append(f.read())
                    source_paths.append(
                        os.path.relpath(full, path).replace(os.sep, "/")
                    )
    # Projects may ship code as Dalvik text instead of (or alongside)
    # sources — e.g. corpora dumped by repro.corpus.export.
    smali_path = os.path.join(path, "classes.smali")
    if not sources and os.path.isfile(smali_path):
        from repro.corpus.export import load_dumped_app

        return load_dumped_app(path, name=name)
    layouts: Dict[str, str] = {}
    layout_root = os.path.join(path, "res", "layout")
    if os.path.isdir(layout_root):
        for filename in sorted(os.listdir(layout_root)):
            if filename.endswith(".xml"):
                layout_name = os.path.splitext(filename)[0]
                with open(os.path.join(layout_root, filename), encoding="utf-8") as f:
                    layouts[layout_name] = f.read()
    menus: Dict[str, str] = {}
    menu_root = os.path.join(path, "res", "menu")
    if os.path.isdir(menu_root):
        for filename in sorted(os.listdir(menu_root)):
            if filename.endswith(".xml"):
                menu_name = os.path.splitext(filename)[0]
                with open(os.path.join(menu_root, filename), encoding="utf-8") as f:
                    menus[menu_name] = f.read()
    manifest_xml = None
    manifest_path = os.path.join(path, "AndroidManifest.xml")
    if os.path.isfile(manifest_path):
        with open(manifest_path, encoding="utf-8") as f:
            manifest_xml = f.read()
    return load_app_from_sources(
        name, sources, layouts, manifest_xml, menus=menus, source_paths=source_paths
    )
