"""The unit of analysis: an Android application bundle.

An :class:`AndroidApp` couples the three inputs every analysis in this
package consumes: the ALite program (application classes plus platform
stubs), the resource table (layouts and ids), and the manifest
(declared activities).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.errors import ReproError
from repro.ir.program import Program
from repro.ir.validate import validate_program
from repro.platform.classes import install_platform
from repro.resources.manifest import Manifest
from repro.resources.rtable import ResourceTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.hierarchy.cha import ClassHierarchy


@dataclass(frozen=True)
class SourceFile:
    """One source text the app was compiled from.

    ``path`` is project-relative (a synthetic ``<memory:n>`` name for
    in-memory sources). Retained so source-level clients — the lint
    engine's inline ``lint:disable`` suppressions, SARIF artifact
    locations — can map findings back to files without re-reading the
    project directory.
    """

    path: str
    text: str


@dataclass
class AndroidApp:
    """A complete application: code, resources, manifest."""

    name: str
    program: Program
    resources: ResourceTable = field(default_factory=ResourceTable)
    manifest: Manifest = field(default_factory=Manifest)
    sources: List[SourceFile] = field(default_factory=list)

    def __post_init__(self) -> None:
        install_platform(self.program)
        for activity in self.manifest.activities:
            if self.program.clazz(activity) is None:
                raise ReproError(f"unknown activity {activity!r}")

    def validate(self, strict: bool = True) -> List[str]:
        """Check IR well-formedness and resource references; see
        :func:`validate_program`."""
        return validate_program(self.program, strict=strict, resources=self.resources)

    def activity_classes(
        self, hierarchy: Optional["ClassHierarchy"] = None
    ) -> List[str]:
        """Application classes that are (transitive) Activity subclasses.

        The manifest may omit activities; like the paper, any activity
        subclass is treated as platform-instantiable. A caller that
        already holds the program's ``hierarchy`` passes it in, so that
        none is built.
        """
        if hierarchy is None:
            from repro.hierarchy.cha import ClassHierarchy

            hierarchy = ClassHierarchy(self.program)
        return [
            c.name
            for c in self.program.application_classes()
            if hierarchy.is_activity_class(c.name) and not c.is_interface
        ]

    def __repr__(self) -> str:
        return (
            f"<AndroidApp {self.name}: "
            f"{sum(1 for _ in self.program.application_classes())} classes, "
            f"{self.resources.layout_count()} layouts>"
        )
