"""Solution fingerprints (``repro.core.diff``).

``solution_fingerprint`` reads the solver's id tables and renders each
node once; it must equal the node-by-node reading in ``conftest`` on
every app. ``diff_solutions`` names a fingerprint of another schema or
app before any content difference.
"""

import os

import pytest

from repro import analyze
from repro.bench.solverbench import scaled_spec
from repro.core import nodes as node_module
from repro.core.diff import SCHEMA, diff_solutions, solution_fingerprint
from repro.core.graph import RelKind
from repro.core.nodes import Node
from repro.corpus.apps import spec_by_name
from repro.corpus.generator import generate_app
from repro.frontend import load_app_from_dir, load_app_from_sources
from repro.ir.program import MethodSig

from conftest import node_fingerprint

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "projects")

# Helper overloads keep by arity, so keep/1 and keep/2 both have the
# locals ``this`` and ``v``, rendered Helper.keep$this and Helper.keep$v.
OVERLOADS = """
package app;

import android.app.Activity;
import android.view.View;

class Main extends Activity {
    void onCreate() {
        this.setContentView(R.layout.main);
        View b = this.findViewById(R.id.ok);
        View t = this.findViewById(R.id.label);
        Helper h = new Helper();
        h.keep(b);
        h.keep(t, b);
    }
}

class Helper {
    View kept;

    void keep(View v) {
        this.kept = v;
    }

    void keep(View v, View w) {
        this.kept = w;
    }
}
"""

LAYOUTS = {
    "main": (
        '<LinearLayout><Button android:id="@+id/ok"/>'
        '<TextView android:id="@+id/label"/></LinearLayout>'
    ),
}

APPS = {
    "notepad": lambda: load_app_from_dir(os.path.join(EXAMPLES_DIR, "notepad")),
    "buggy": lambda: load_app_from_dir(os.path.join(EXAMPLES_DIR, "buggy")),
    "ConnectBot": lambda: generate_app(spec_by_name("ConnectBot")),
    "scale1": lambda: generate_app(scaled_spec(1)),
    "overloads": lambda: load_app_from_sources("overloads", [OVERLOADS], LAYOUTS),
}


@pytest.fixture(scope="module")
def k9():
    return analyze(generate_app(spec_by_name("K9")))


@pytest.mark.parametrize("name", sorted(APPS))
def test_fingerprint_matches_node_by_node_reading(name):
    result = analyze(APPS[name]())
    assert solution_fingerprint(result) == node_fingerprint(result)


def test_k9_fingerprint_matches_node_by_node_reading(k9):
    assert solution_fingerprint(k9) == node_fingerprint(k9)


def test_colliding_labels_keep_the_later_id():
    """Two points-to entries with one label: the later id's entry is
    the one the fingerprint keeps."""
    result = analyze(APPS["overloads"]())
    graph = result.graph
    pts = solution_fingerprint(result)["pts"]
    for name in ("this", "v"):
        first = graph.lookup_var(MethodSig("app.Helper", "keep", 1), name)
        later = graph.lookup_var(MethodSig("app.Helper", "keep", 2), name)
        assert str(first) == str(later) == f"Helper.keep${name}"
        assert graph.id_of(first) < graph.id_of(later)
        assert pts[str(later)] == tuple(sorted(str(v) for v in result.pts[later]))
    v1 = graph.lookup_var(MethodSig("app.Helper", "keep", 1), "v")
    v2 = graph.lookup_var(MethodSig("app.Helper", "keep", 2), "v")
    assert result.pts[v1] != result.pts[v2]


def test_fingerprint_renders_each_node_once(k9, monkeypatch):
    """Fingerprinting K9 renders each of its 33,367 nodes once, plus
    the few relationship edges, XML handlers and menu items (the
    node-by-node reading made 262,128 renderings). A rendering nested
    in another, such as a port's operation, is part of that one."""
    rendered = [0]
    depth = [0]
    classes = [
        cls
        for cls in vars(node_module).values()
        if isinstance(cls, type) and issubclass(cls, Node) and cls is not Node
    ]
    for cls in classes:

        def counting(self, _str=cls.__str__):
            if depth[0] == 0:
                rendered[0] += 1
            depth[0] += 1
            try:
                return _str(self)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, "__str__", counting)
    solution_fingerprint(k9)
    monkeypatch.undo()
    graph = k9.graph
    rel_edges = sum(graph.rel_edge_count(kind) for kind in RelKind)
    menu_items = sum(len(items) for items in k9.menu_items_by_class.values())
    bound = len(graph.node_list) + 2 * rel_edges + len(k9.xml_handlers) + menu_items
    assert len(graph.node_list) <= rendered[0] <= bound


def test_diff_reports_a_schema_mismatch_alone():
    fingerprint = solution_fingerprint(analyze(APPS["notepad"]()))
    other = {"schema": "repro.diff/0"}
    assert diff_solutions(fingerprint, other) == [
        f"schema: {SCHEMA!r} != 'repro.diff/0'"
    ]


def test_diff_reports_an_app_mismatch_first():
    notepad = solution_fingerprint(analyze(APPS["notepad"]()))
    assert diff_solutions(notepad, dict(notepad, app="other")) == [
        "app: 'notepad' != 'other'"
    ]
    problems = diff_solutions(notepad, solution_fingerprint(analyze(APPS["buggy"]())))
    assert problems[0] == "app: 'notepad' != 'buggy'"
    assert len(problems) > 1
