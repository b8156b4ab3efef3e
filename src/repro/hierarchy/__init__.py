"""Class-hierarchy analysis and call-site resolution.

The paper resolves polymorphic calls "using class hierarchy
information" (Section 4.3); this package provides the subtype queries,
CHA dispatch resolution, and the resolution of one call site
(:func:`repro.hierarchy.callgraph.resolve_invoke`) built on them.
"""

from repro.hierarchy.cha import ClassHierarchy

__all__ = ["ClassHierarchy"]
