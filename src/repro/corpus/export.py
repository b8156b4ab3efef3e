"""On-disk export/import of whole applications.

``dump_app`` writes an application as a browsable project directory —
Dalvik text for the code, serialised XML for layouts/menus/manifest —
and ``load_dumped_app`` reads it back with the project loader.
Round-tripping any app through disk preserves the analysis solution
(tested), which makes the generated evaluation corpus inspectable and
shippable:

.. code-block:: console

    $ python -m repro.corpus dump XBMC /tmp/xbmc
    $ python -m repro analyze /tmp/xbmc        # via classes.smali
"""

from __future__ import annotations

import os
from typing import Optional

from repro.app import AndroidApp
# The project loader parses classes.smali with this module's parse_dex_text.
from repro.dex import assemble_program, parse_dex_text
from repro.resources.serialize import layout_to_xml, manifest_to_xml, menu_to_xml


def dump_app(app: AndroidApp, path: str) -> None:
    """Write ``app`` as a project directory (Dalvik text + resources)."""
    os.makedirs(os.path.join(path, "res", "layout"), exist_ok=True)
    with open(os.path.join(path, "classes.smali"), "w", encoding="utf-8") as f:
        f.write(assemble_program(app.program))
    # Write resources in sorted-name order so a dump is byte-stable
    # regardless of resource-table insertion order; the loaders on the
    # other end (load_dumped_app, load_app_from_dir) sort their
    # directory listings, so id assignment round-trips deterministically.
    for name in sorted(app.resources.layout_names()):
        tree = app.resources.layout(name)
        with open(
            os.path.join(path, "res", "layout", f"{name}.xml"), "w", encoding="utf-8"
        ) as f:
            f.write(layout_to_xml(tree))
    menu_names = sorted(app.resources.menu_names())
    if menu_names:
        os.makedirs(os.path.join(path, "res", "menu"), exist_ok=True)
        for name in menu_names:
            with open(
                os.path.join(path, "res", "menu", f"{name}.xml"), "w", encoding="utf-8"
            ) as f:
                f.write(menu_to_xml(app.resources.menu(name)))
    # Standalone R.id entries (ids used only from code) live in
    # res/values/ids.xml, like Android's own <item type="id"> mechanism.
    os.makedirs(os.path.join(path, "res", "values"), exist_ok=True)
    with open(
        os.path.join(path, "res", "values", "ids.xml"), "w", encoding="utf-8"
    ) as f:
        f.write("<resources>\n")
        for id_name in sorted(app.resources.view_id_names()):
            f.write(f'  <item type="id" name="{id_name}"/>\n')
        f.write("</resources>\n")
    with open(os.path.join(path, "AndroidManifest.xml"), "w", encoding="utf-8") as f:
        f.write(manifest_to_xml(app.manifest))


def load_dumped_app(path: str, name: Optional[str] = None) -> AndroidApp:
    """Load a project directory written by :func:`dump_app`."""
    from repro.frontend.loader import load_app_from_dir

    return load_app_from_dir(path, name=name)
