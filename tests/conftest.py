"""Shared fixtures: the running example and small hand-built apps."""

from __future__ import annotations

import pytest

from repro import analyze
from repro.app import AndroidApp
from repro.core.diff import SCHEMA
from repro.core.graph import RelKind
from repro.core.metrics import compute_precision
from repro.corpus.connectbot import build_connectbot_example
from repro.ir.builder import ProgramBuilder
from repro.resources.layout import LayoutNode, LayoutTree
from repro.resources.manifest import Manifest
from repro.resources.rtable import ResourceTable


@pytest.fixture(scope="session")
def connectbot_app():
    return build_connectbot_example()


@pytest.fixture(scope="session")
def connectbot_result(connectbot_app):
    return analyze(connectbot_app)


def make_single_activity_app(
    name="tiny",
    activity="app.MainActivity",
    layout=None,
    build_on_create=None,
):
    """Helper for tests: one activity, one layout, custom onCreate body.

    ``build_on_create(m)`` receives the MethodBuilder for onCreate.
    ``layout`` is a LayoutTree; defaults to a LinearLayout with a Button.
    """
    if layout is None:
        root = LayoutNode("android.widget.LinearLayout", id_name="root")
        root.add_child(LayoutNode("android.widget.Button", id_name="button_a"))
        layout = LayoutTree("main", root)

    pb = ProgramBuilder()
    with pb.clazz(activity, extends="android.app.Activity") as c:
        with c.method("onCreate") as m:
            lid = m.layout_id(layout.name, line=1)
            m.invoke(m.this, "setContentView", [lid], line=1)
            if build_on_create is not None:
                build_on_create(m)
            m.ret()

    resources = ResourceTable()
    resources.add_layout(layout)
    resources.freeze_ids()
    manifest = Manifest(package="app")
    manifest.add_activity(activity, launcher=True)
    return AndroidApp(name=name, program=pb.build(), resources=resources, manifest=manifest)


def node_fingerprint(result):
    """The solution fingerprint read node by node: every points-to entry
    and flow edge decoded to node objects and each node rendered at
    every mention. The reference that ``solution_fingerprint``, which
    reads ids, must equal."""
    pts = {
        str(node): tuple(sorted(str(v) for v in values))
        for node, values in result.pts.items()
        if values
    }
    rels = {}
    for kind in RelKind:
        edges = sorted(f"{src} -> {dst}" for src, dst in result.graph.rel_edges(kind))
        rels[kind.name] = tuple(edges)
    flows = tuple(sorted(f"{src} -> {dst}" for src, dst in result.graph.flow_edges()))
    xml = tuple(
        sorted(f"{b.activity_class}: {b.view} -> {b.handler}" for b in result.xml_handlers)
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
