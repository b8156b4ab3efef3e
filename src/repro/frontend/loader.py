"""Whole-application loading: code + resources + manifest → AndroidApp.

Directory convention (a trimmed Android project layout):

.. code-block:: text

    myapp/
      AndroidManifest.xml     (optional)
      src/**/*.alite          (Java-subset sources)
      classes.smali           (Dalvik text, read when there are no sources)
      res/layout/*.xml, res/menu/*.xml, res/values/ids.xml (optional)
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Sequence

from repro.app import AndroidApp, SourceFile
from repro.frontend.lowering import compile_sources
from repro.ir.program import Program
from repro.resources.manifest import Manifest, parse_manifest_xml
from repro.resources.menu import parse_menu_xml
from repro.resources.rtable import ResourceTable
from repro.resources.xml_parser import LayoutXmlError, parse_android_xml, parse_layout_xml


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
    source_files = [SourceFile(p, t) for p, t in zip(source_paths, sources)]
    return _assemble(name, program, source_files, layouts or {}, menus or {}, (), manifest_xml)


def load_app_from_dir(path: str, name: Optional[str] = None) -> AndroidApp:
    """Load a trimmed Android project directory into an app.

    Code comes from the ``.alite``/``.java`` sources under ``src/``, or,
    when there are none, from ``classes.smali`` (the form
    :func:`repro.corpus.export.dump_app` writes).
    """
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
                    sources.append(_read(full))
                    source_paths.append(
                        os.path.relpath(full, path).replace(os.sep, "/")
                    )
    smali_path = os.path.join(path, "classes.smali")
    if not sources and os.path.isfile(smali_path):
        # Looked up on the module at call time, where profilers wrap it.
        from repro.corpus import export

        program, source_files = export.parse_dex_text(_read(smali_path)), []
    else:
        program = compile_sources(sources, source_paths)
        source_files = [SourceFile(p, t) for p, t in zip(source_paths, sources)]
    res = os.path.join(path, "res")
    manifest_path = os.path.join(path, "AndroidManifest.xml")
    return _assemble(
        name, program, source_files,
        _xml_texts(os.path.join(res, "layout")),
        _xml_texts(os.path.join(res, "menu")),
        _standalone_ids(os.path.join(res, "values", "ids.xml")),
        _read(manifest_path) if os.path.isfile(manifest_path) else None,
    )


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _xml_texts(directory: str) -> Dict[str, str]:
    """Resource name -> text of each ``*.xml`` file, in name order."""
    if not os.path.isdir(directory):
        return {}
    return {
        os.path.splitext(filename)[0]: _read(os.path.join(directory, filename))
        for filename in sorted(os.listdir(directory))
        if filename.endswith(".xml")
    }


def _standalone_ids(ids_path: str) -> List[str]:
    """The ``<item type="id" name=...>`` entries of ``res/values/ids.xml``."""
    if not os.path.isfile(ids_path):
        return []
    try:
        root = parse_android_xml(_read(ids_path))
    except ET.ParseError as exc:
        raise LayoutXmlError(f"res/values/ids.xml: XML parse error: {exc}") from exc
    items = [i for i in root if i.tag == "item" and i.get("type") == "id"]
    if not all(item.get("name") for item in items):
        raise LayoutXmlError("res/values/ids.xml: id item without a name")
    return [item.get("name") for item in items]


def _assemble(
    name: str, program: Program, sources: List[SourceFile], layouts: Dict[str, str],
    menus: Dict[str, str], id_names: Sequence[str], manifest_xml: Optional[str],
) -> AndroidApp:
    """Parse the resources and manifest around ``program``. Without a
    manifest, every activity subclass is declared, the first as launcher."""
    resources = ResourceTable()
    for layout_name, xml in layouts.items():
        resources.add_layout(parse_layout_xml(layout_name, xml))
    for menu_name, xml in menus.items():
        resources.add_menu(parse_menu_xml(menu_name, xml))
    for id_name in id_names:
        resources.view_id(id_name)
    resources.freeze_ids()
    manifest = Manifest(package=name)
    if manifest_xml is not None:
        manifest = parse_manifest_xml(manifest_xml)
        for activity in manifest.activities:
            if program.clazz(activity) is None:
                raise LayoutXmlError(f"AndroidManifest.xml: unknown activity {activity!r}")
    app = AndroidApp(name, program, resources, manifest, sources)
    if manifest_xml is None:
        for index, activity in enumerate(app.activity_classes()):
            manifest.add_activity(activity, launcher=index == 0)
    return app
