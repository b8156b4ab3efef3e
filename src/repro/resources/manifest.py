"""Application manifest: declared activities and the launcher.

A trimmed model of ``AndroidManifest.xml``: which application classes
are activities (the platform instantiates them — the paper models this
as implicit ``t := new a`` statements) and which activity is the
launcher entry point (where the concrete interpreter starts).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import List, Optional

from repro.resources.xml_parser import LayoutXmlError, _attr, parse_android_xml


@dataclass
class Manifest:
    """Package name, declared activities, and the launcher activity."""

    package: str = "app"
    activities: List[str] = field(default_factory=list)
    launcher: Optional[str] = None

    def add_activity(self, class_name: str, launcher: bool = False) -> None:
        if class_name not in self.activities:
            self.activities.append(class_name)
        if launcher:
            self.launcher = class_name

    def main_activity(self) -> Optional[str]:
        """The launcher if declared, else the first activity."""
        if self.launcher is not None:
            return self.launcher
        return self.activities[0] if self.activities else None


def parse_manifest_xml(text: str) -> Manifest:
    """Parse an AndroidManifest-like XML document.

    Recognises ``<manifest package=...>``, ``<activity android:name=...>``
    and a nested launcher ``<intent-filter>`` with
    ``<action android:name="android.intent.action.MAIN"/>``.
    """
    try:
        root = parse_android_xml(text)
    except ET.ParseError as exc:
        raise LayoutXmlError(f"AndroidManifest.xml: XML parse error: {exc}") from exc
    manifest = Manifest(package=root.get("package", "app"))
    app_elem = root.find("application")
    if app_elem is None:
        return manifest
    for activity in app_elem.findall("activity"):
        name = _attr(activity, "name")
        if not name:
            continue
        if name.startswith("."):
            name = manifest.package + name
        is_launcher = False
        for intent_filter in activity.findall("intent-filter"):
            for action in intent_filter.findall("action"):
                if _attr(action, "name") == "android.intent.action.MAIN":
                    is_launcher = True
        manifest.add_activity(name, launcher=is_launcher)
    return manifest
