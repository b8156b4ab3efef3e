"""Canonical fingerprints for comparing analysis solutions.

The semi-naive scheduler must be *observationally identical* to the
naive schedule: same ``flowsTo`` sets, same relationship edges, same
XML-handler bindings, same precision metrics. Fingerprints ignore the
artifacts a client can never observe:

* **Empty points-to entries** — ``AnalysisResult.values_at`` returns
  ``set()`` for an empty entry and for a missing one alike.
* **List orderings** — ``xml_handlers`` and per-class menu items are
  appended in rule-evaluation order, which the scheduler changes.
  Clients consume them as sets (``gui_tuples`` deduplicates), so
  fingerprints compare sorted canonical forms.

Everything else must match exactly, and :func:`diff_solutions` reports
the first few discrepancies with enough context to debug a scheduler
bug. It reports a ``schema`` or ``app`` mismatch before any content.

**Reading ids.** The fingerprint reads the solver's id tables
(``result.pts.by_id``, ``graph.flow``) and renders each interned node
once, as ``label[id]``; a points-to entry or flow edge indexes that
list instead of rendering its nodes again. Relationship edges, XML
handlers and menu items are few and stay on nodes.

**Label collisions.** Entries are keyed by ``str(node)``, which drops a
method's package and arity, so two nodes can share a label: for
example ``Helper.keep$v`` in both ``keep/1`` and ``keep/2``. In ``pts``
the entry of the later id then overwrites the earlier one, and a
difference in the earlier entry is invisible to :func:`diff_solutions`.
An equivalence check is exact only where an app's node labels are
unique, as they are in the corpus and the example projects.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.graph import RelKind
from repro.core.metrics import compute_precision
from repro.core.results import AnalysisResult
from repro.gcpause import gc_paused

# Bump when the fingerprint shape changes.
SCHEMA = "repro.diff/1"


@gc_paused()
def solution_fingerprint(result: AnalysisResult) -> Dict[str, object]:
    """A canonical, order-independent digest of the full solution."""
    graph = result.graph
    # One rendering per interned node; everything below indexes it by id.
    label = [str(node) for node in graph.node_list]
    pts = {
        label[i]: tuple(sorted(map(label.__getitem__, values)))
        for i, values in result.pts.by_id.items()
        if values
    }
    rels: Dict[str, Tuple[str, ...]] = {}
    for kind in RelKind:
        edges = sorted(
            f"{src} -> {dst}" for src, dst in graph.rel_edges(kind)
        )
        rels[kind.name] = tuple(edges)
    flows = tuple(
        sorted(
            f"{label[src]} -> {label[dst]}"
            for src, out in graph.flow.items()
            for dst in out
        )
    )
    xml = tuple(
        sorted(
            f"{b.activity_class}: {b.view} -> {b.handler}"
            for b in result.xml_handlers
        )
    )
    menus = {
        class_name: tuple(sorted(str(item) for item in items))
        for class_name, items in result.menu_items_by_class.items()
        if items
    }
    precision = compute_precision(result)
    return {
        "schema": SCHEMA,
        "app": result.app.name,
        "converged": result.converged,
        "pts": pts,
        "rels": rels,
        "flows": flows,
        "xml_handlers": xml,
        "menu_items": menus,
        "precision": {
            "receivers": precision.receivers,
            "parameters": precision.parameters,
            "results": precision.results,
            "listeners": precision.listeners,
        },
    }


def diff_solutions(
    a: Dict[str, object], b: Dict[str, object], limit: int = 10
) -> List[str]:
    """Human-readable discrepancies between two fingerprints.

    Empty when the solutions are observationally identical.
    """
    problems: List[str] = []

    def note(message: str) -> None:
        if len(problems) < limit:
            problems.append(message)

    if a["schema"] != b["schema"]:
        # Other schemas have other shapes: there is no content to compare.
        note(f"schema: {a['schema']!r} != {b['schema']!r}")
        return problems
    for key in ("app", "converged", "flows", "xml_handlers", "precision"):
        if a[key] != b[key]:
            note(f"{key}: {a[key]!r} != {b[key]!r}")

    pts_a: Dict[str, Tuple[str, ...]] = a["pts"]  # type: ignore[assignment]
    pts_b: Dict[str, Tuple[str, ...]] = b["pts"]  # type: ignore[assignment]
    for node in sorted(pts_a.keys() | pts_b.keys()):
        va, vb = pts_a.get(node, ()), pts_b.get(node, ())
        if va != vb:
            only_a = sorted(set(va) - set(vb))
            only_b = sorted(set(vb) - set(va))
            note(f"pts[{node}]: only-first={only_a} only-second={only_b}")

    rels_a: Dict[str, Tuple[str, ...]] = a["rels"]  # type: ignore[assignment]
    rels_b: Dict[str, Tuple[str, ...]] = b["rels"]  # type: ignore[assignment]
    for kind in sorted(rels_a.keys() | rels_b.keys()):
        ea, eb = set(rels_a.get(kind, ())), set(rels_b.get(kind, ()))
        if ea != eb:
            note(
                f"rels[{kind}]: only-first={sorted(ea - eb)} "
                f"only-second={sorted(eb - ea)}"
            )

    menus_a: Dict[str, Tuple[str, ...]] = a["menu_items"]  # type: ignore[assignment]
    menus_b: Dict[str, Tuple[str, ...]] = b["menu_items"]  # type: ignore[assignment]
    if menus_a != menus_b:
        note(f"menu_items: {menus_a!r} != {menus_b!r}")

    return problems
