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

import contextlib
import os
from typing import Dict, Iterator, List, Optional, Sequence

from repro.app import AndroidApp, SourceFile
from repro.errors import ReproError
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
    :func:`repro.corpus.export.dump_app` writes). Errors name the file.
    """
    if not os.path.isdir(path):
        raise ReproError("not a project directory", path=path)
    if name is None:
        name = os.path.basename(os.path.abspath(path))
    source_paths: List[str] = []
    for dirpath, dirs, files in os.walk(os.path.join(path, "src")):
        # os.walk yields directories in filesystem order; sorting in
        # place fixes the traversal so source order (hence synthetic
        # paths, node ids, and goldens) is filesystem-independent.
        dirs.sort()
        source_paths.extend(
            os.path.relpath(os.path.join(dirpath, f), path).replace(os.sep, "/")
            for f in sorted(files)
            if f.endswith((".alite", ".java"))
        )
    sources = [read_text(path, p) for p in source_paths]
    smali = None if sources else read_text(path, "classes.smali")
    if sources:
        program = compile_sources(sources, source_paths)
    elif smali is not None:
        # Looked up on the module at call time, where profilers wrap it.
        from repro.corpus import export

        with _located("classes.smali"):
            program = export.parse_dex_text(smali)
    else:
        raise ReproError("no sources under src/ and no classes.smali", path=path)
    with _located("res/values/ids.xml"):
        id_names = _standalone_ids(read_text(path, "res/values/ids.xml"))
    return _assemble(
        name, program, [SourceFile(p, t) for p, t in zip(source_paths, sources)],
        _xml_texts(path, "res/layout"), _xml_texts(path, "res/menu"),
        id_names, read_text(path, "AndroidManifest.xml"),
    )


@contextlib.contextmanager
def _located(path: str) -> Iterator[None]:
    """Attach the project-relative ``path`` to input errors raised inside."""
    try:
        yield
    except ReproError as exc:
        if exc.path is None:
            exc.path = path
        raise
    except RecursionError:
        raise ReproError("elements nested too deeply", path=path) from None


def read_text(root: str, relpath: str) -> Optional[str]:
    """The UTF-8 text of ``root/relpath``, None if there is no such file.
    An unreadable file or bytes that are not UTF-8 raise a ReproError
    naming ``relpath``."""
    try:
        with open(os.path.join(root, relpath), "rb") as f:
            data = f.read()
        return data.decode("utf-8")
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise ReproError(f"cannot read: {exc.strerror}", path=relpath) from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ReproError(f"not UTF-8 text: {exc.reason}", line, path=relpath) from None


def _xml_texts(root: str, directory: str) -> Dict[str, str]:
    """Resource name -> text of each ``*.xml`` file, in name order."""
    full = os.path.join(root, directory)
    return {
        os.path.splitext(filename)[0]: read_text(root, f"{directory}/{filename}")
        for filename in (sorted(os.listdir(full)) if os.path.isdir(full) else ())
        if filename.endswith(".xml")
    }


def _standalone_ids(text: Optional[str]) -> List[str]:
    """The ``<item type="id" name=...>`` entries of ``res/values/ids.xml``."""
    if text is None:
        return []
    root = parse_android_xml(text)
    names = [i.get("name") for i in root if i.tag == "item" and i.get("type") == "id"]
    if not all(names):
        raise LayoutXmlError("id item without a name")
    return names


def _assemble(
    name: str, program: Program, sources: List[SourceFile], layouts: Dict[str, str],
    menus: Dict[str, str], id_names: Sequence[str], manifest_xml: Optional[str],
) -> AndroidApp:
    """Parse the resources and manifest around ``program``. Without a
    manifest, every activity subclass is declared, the first as launcher."""
    resources = ResourceTable()
    for layout_name, xml in layouts.items():
        with _located(f"res/layout/{layout_name}.xml"):
            resources.add_layout(parse_layout_xml(layout_name, xml))
    for menu_name, xml in menus.items():
        with _located(f"res/menu/{menu_name}.xml"):
            resources.add_menu(parse_menu_xml(menu_name, xml))
    for id_name in id_names:
        resources.view_id(id_name)
    for layout_name in layouts:
        # Expands <include>s, allocating the layouts' view ids in order.
        with _located(f"res/layout/{layout_name}.xml"):
            resources.layout(layout_name)
    with _located("AndroidManifest.xml"):
        manifest = Manifest(name) if manifest_xml is None else parse_manifest_xml(manifest_xml)
        app = AndroidApp(name, program, resources, manifest, sources)
    if manifest_xml is None:
        for index, activity in enumerate(app.activity_classes()):
            manifest.add_activity(activity, launcher=index == 0)
    return app
