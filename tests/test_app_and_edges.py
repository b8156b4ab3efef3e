"""Tests for the AndroidApp bundle and analysis/interpreter edge cases."""

import pytest

from repro import AnalysisOptions, analyze
from repro.app import AndroidApp
from repro.clients.transitions import build_transition_graph
from repro.hierarchy.cha import ClassHierarchy
from repro.ir.builder import ProgramBuilder
from repro.ir.program import Program
from repro.platform.classes import install_platform
from repro.resources.layout import LayoutNode, LayoutTree
from repro.resources.manifest import Manifest
from repro.resources.rtable import ResourceTable
from repro.semantics import run_app

from conftest import make_single_activity_app

VIEW = "android.view.View"


class TestAndroidApp:
    def test_platform_installed_automatically(self):
        app = AndroidApp("t", Program(), ResourceTable(), Manifest())
        assert app.program.clazz("android.view.View") is not None

    def test_unknown_manifest_activity_rejected(self):
        manifest = Manifest()
        manifest.add_activity("app.Ghost")
        with pytest.raises(ValueError, match="unknown activity"):
            AndroidApp("t", Program(), ResourceTable(), manifest)

    def test_activity_classes_found_without_manifest(self):
        pb = ProgramBuilder()
        pb.clazz("app.A", extends="android.app.Activity")
        pb.clazz("app.B")  # not an activity
        pb.clazz("app.C", extends="app.A")  # transitive activity
        app = AndroidApp("t", pb.build(), ResourceTable(), Manifest())
        assert set(app.activity_classes()) == {"app.A", "app.C"}
        hierarchy = ClassHierarchy(app.program)
        assert app.activity_classes(hierarchy) == app.activity_classes()

    def test_analysis_and_transitions_reuse_the_builder_hierarchy(self, monkeypatch):
        app = make_single_activity_app()
        built = []
        original = ClassHierarchy.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ClassHierarchy, "__init__", counting_init)
        result = analyze(app)
        build_transition_graph(result)
        assert built == [result.hierarchy]

    def test_repr(self):
        app = make_single_activity_app()
        assert "1 layouts" in repr(app)


class TestAnalysisEdgeCases:
    def test_activity_without_layout(self):
        pb = ProgramBuilder()
        with pb.clazz("app.A", extends="android.app.Activity") as c:
            with c.method("onCreate") as m:
                vid = m.view_id("anything", line=1)
                m.invoke(m.this, "findViewById", [vid], lhs=m.local("x", VIEW), line=1)
                m.ret()
        manifest = Manifest()
        manifest.add_activity("app.A")
        app = AndroidApp("t", pb.build(), ResourceTable(), manifest)
        result = analyze(app)
        # No setContentView: the lookup resolves to nothing, soundly.
        assert result.views_at_var("app.A", "onCreate", 0, "x") == set()

    def test_inflate_with_unknown_int_id(self):
        def body(m):
            raw = m.const_int(0x12345, line=2)
            infl = m.new("android.view.LayoutInflater",
                         lhs=m.local("i", "android.view.LayoutInflater"), line=2)
            m.invoke(infl, "inflate", [raw], lhs=m.local("k", VIEW), line=3)

        result = analyze(make_single_activity_app(build_on_create=body))
        # The unknown id inflates nothing; only the activity layout exists.
        assert len(result.graph.infl_view_nodes()) == 2

    def test_raw_int_matching_r_constant_behaves_as_id(self):
        app = make_single_activity_app()
        # Rebuild onCreate with the raw integer value of R.id.button_a.
        value = app.resources.view_id("button_a")
        method = app.program.clazz("app.MainActivity").method("onCreate", 0)
        from repro.ir.builder import MethodBuilder

        mb = MethodBuilder(method)
        method.body.pop()  # ret
        raw = mb.const_int(value, line=9)
        mb.invoke("this", "findViewById", [raw], lhs=mb.local("b", VIEW), line=9)
        mb.ret()
        result = analyze(app)
        assert len(result.views_at_var("app.MainActivity", "onCreate", 0, "b")) == 1

    def test_max_rounds_cap_respected(self):
        app = make_single_activity_app()
        with pytest.warns(RuntimeWarning, match="without reaching a fixed point"):
            result = analyze(app, AnalysisOptions(max_rounds=1, solver="naive"))
        assert result.rounds == 1  # truncated (possibly incomplete) run
        assert result.converged is False
        # The semi-naive scheduler proves the fixed point inside the
        # same budget: after the round-0 sweep no op is dirty, so no
        # confirming round is needed (naive always needs a zero-delta
        # round to detect convergence).
        semi = analyze(app, AnalysisOptions(max_rounds=1))
        assert semi.converged is True
        assert semi.rounds == 1

    def test_self_addview_ignored(self):
        def body(m):
            rid = m.view_id("root", line=2)
            m.invoke(m.this, "findViewById", [rid], lhs=m.local("r", VIEW), line=2)
            m.cast("android.widget.LinearLayout", "r",
                   lhs=m.local("c", "android.widget.LinearLayout"), line=3)
            m.invoke("c", "addView", ["c"], line=4)

        result = analyze(make_single_activity_app(build_on_create=body))
        root = next(iter(result.roots_of_activity("app.MainActivity")))
        assert root not in result.graph.children_of(root)


class TestInterpreterEdgeCases:
    def test_findview_on_activity_without_root(self):
        pb = ProgramBuilder()
        with pb.clazz("app.A", extends="android.app.Activity") as c:
            with c.method("onCreate") as m:
                vid = m.view_id("x", line=1)
                m.invoke(m.this, "findViewById", [vid], lhs=m.local("v", VIEW), line=1)
                m.ret()
        manifest = Manifest()
        manifest.add_activity("app.A")
        app = AndroidApp("t", pb.build(), ResourceTable(), manifest)
        run = run_app(app)  # must not crash
        assert not run.budget_exhausted

    def test_call_on_null_receiver_is_noop(self):
        def body(m):
            n = m.const_null(lhs=m.local("n", VIEW), line=2)
            m.invoke(n, "setId", [m.view_id("x", line=2)], line=2)

        app = make_single_activity_app(build_on_create=body)
        run = run_app(app)
        assert not run.budget_exhausted

    def test_multiple_listeners_same_view(self):
        pb = ProgramBuilder()
        with pb.clazz("app.L1", implements=["android.view.View$OnClickListener"]) as c:
            with c.method("onClick", params=[("v", VIEW)]) as m:
                m.ret()
        with pb.clazz("app.L2", implements=["android.view.View$OnClickListener"]) as c:
            with c.method("onClick", params=[("v", VIEW)]) as m:
                m.ret()
        root = LayoutNode("android.widget.LinearLayout", id_name="root")
        root.add_child(LayoutNode("android.widget.Button", id_name="b"))
        with pb.clazz("app.MainActivity", extends="android.app.Activity") as c:
            with c.method("onCreate") as m:
                m.invoke(m.this, "setContentView", [m.layout_id("main", line=1)], line=1)
                m.invoke(m.this, "findViewById", [m.view_id("b", line=2)],
                         lhs=m.local("btn", VIEW), line=2)
                l1 = m.new("app.L1", lhs=m.local("l1", "app.L1"), line=3)
                l2 = m.new("app.L2", lhs=m.local("l2", "app.L2"), line=4)
                m.invoke("btn", "setOnClickListener", [l1], line=5)
                m.invoke("btn", "setOnClickListener", [l2], line=6)
                m.ret()
        resources = ResourceTable()
        resources.add_layout(LayoutTree("main", root))
        manifest = Manifest()
        manifest.add_activity("app.MainActivity")
        app = AndroidApp("t", pb.build(), resources, manifest)
        result = analyze(app)
        button = next(v for v in result.activity_views("app.MainActivity")
                      if v.view_class == "android.widget.Button")
        assert len(result.listeners_of(button)) == 2
        run = run_app(app)
        assert len(run.trace.handler_invocations) == 2
