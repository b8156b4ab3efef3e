"""Solver tests: each operation rule on small hand-built apps."""

import pytest

from repro import AnalysisOptions, analyze
from repro.core.nodes import AllocNode, InflViewNode, OpArg, OpRecv
from repro.core.graph import RelKind
from repro.ir.builder import ProgramBuilder
from repro.platform.api import OpKind
from repro.resources.layout import LayoutNode, LayoutTree
from repro.resources.manifest import Manifest
from repro.resources.rtable import ResourceTable
from repro.app import AndroidApp

from conftest import make_single_activity_app

ACTIVITY = "app.MainActivity"
VIEW = "android.view.View"


def _views(result, method, var, arity=0, cls=ACTIVITY):
    return {str(v) for v in result.views_at_var(cls, method, arity, var)}


class TestInflate2:
    def test_activity_root_association(self):
        app = make_single_activity_app()
        result = analyze(app)
        roots = result.roots_of_activity(ACTIVITY)
        assert len(roots) == 1
        root = next(iter(roots))
        assert isinstance(root, InflViewNode)
        assert root.view_class == "android.widget.LinearLayout"

    def test_hierarchy_materialised(self):
        app = make_single_activity_app()
        result = analyze(app)
        views = result.activity_views(ACTIVITY)
        assert {v.view_class for v in views} == {
            "android.widget.LinearLayout",
            "android.widget.Button",
        }

    def test_ids_attached(self):
        app = make_single_activity_app()
        result = analyze(app)
        button = next(
            v for v in result.activity_views(ACTIVITY)
            if v.view_class == "android.widget.Button"
        )
        assert {str(i) for i in result.graph.ids_of(button)} == {"R.id.button_a"}


class TestFindView2:
    def test_lookup_by_id(self):
        def body(m):
            vid = m.view_id("button_a")
            m.invoke(m.this, "findViewById", [vid], lhs=m.local("b", VIEW), line=2)

        result = analyze(make_single_activity_app(build_on_create=body))
        assert _views(result, "onCreate", "b") == {"Button_1.1.1"}

    def test_missing_id_gives_empty_result(self):
        def body(m):
            vid = m.view_id("nonexistent")
            m.invoke(m.this, "findViewById", [vid], lhs=m.local("b", VIEW), line=2)

        result = analyze(make_single_activity_app(build_on_create=body))
        assert _views(result, "onCreate", "b") == set()

    def test_duplicate_ids_give_multiple_results(self):
        root = LayoutNode("android.widget.LinearLayout")
        root.add_child(LayoutNode("android.widget.Button", id_name="dup"))
        root.add_child(LayoutNode("android.widget.Button", id_name="dup"))
        layout = LayoutTree("main", root)

        def body(m):
            vid = m.view_id("dup")
            m.invoke(m.this, "findViewById", [vid], lhs=m.local("b", VIEW), line=2)

        result = analyze(make_single_activity_app(layout=layout, build_on_create=body))
        assert len(_views(result, "onCreate", "b")) == 2


class TestFindView1:
    def test_subtree_search(self):
        root = LayoutNode("android.widget.LinearLayout")
        panel = root.add_child(LayoutNode("android.widget.FrameLayout", id_name="panel"))
        panel.add_child(LayoutNode("android.widget.Button", id_name="inner"))
        root.add_child(LayoutNode("android.widget.Button", id_name="outer"))
        layout = LayoutTree("main", root)

        def body(m):
            pid = m.view_id("panel")
            p = m.local("p", "android.widget.FrameLayout")
            m.invoke(m.this, "findViewById", [pid], lhs=m.local("pv", VIEW), line=2)
            m.cast("android.widget.FrameLayout", "pv", lhs=p, line=3)
            iid = m.view_id("inner")
            m.invoke(p, "findViewById", [iid], lhs=m.local("i", VIEW), line=4)
            oid = m.view_id("outer")
            m.invoke(p, "findViewById", [oid], lhs=m.local("o", VIEW), line=5)

        result = analyze(make_single_activity_app(layout=layout, build_on_create=body))
        assert len(_views(result, "onCreate", "i")) == 1
        # "outer" is not under the panel: FindView1 must not see it.
        assert _views(result, "onCreate", "o") == set()

    def test_self_match(self):
        # findViewById on a view whose own id matches returns the view.
        def body(m):
            rid = m.view_id("root")
            m.invoke(m.this, "findViewById", [rid], lhs=m.local("r", VIEW), line=2)
            m.invoke("r", "findViewById", [m.view_id("root")],
                     lhs=m.local("again", VIEW), line=3)

        result = analyze(make_single_activity_app(build_on_create=body))
        assert _views(result, "onCreate", "again") == _views(result, "onCreate", "r")


class TestInflate1AndAddView:
    def _app(self):
        main = LayoutTree("main", LayoutNode("android.widget.LinearLayout", id_name="root"))
        item_root = LayoutNode("android.widget.FrameLayout")
        item_root.add_child(LayoutNode("android.widget.TextView", id_name="label"))
        item = LayoutTree("item", item_root)

        pb = ProgramBuilder()
        with pb.clazz(ACTIVITY, extends="android.app.Activity") as c:
            with c.method("onCreate") as m:
                m.invoke(m.this, "setContentView", [m.layout_id("main", line=1)], line=1)
                infl = m.new("android.view.LayoutInflater",
                             lhs=m.local("infl", "android.view.LayoutInflater"), line=2)
                lid = m.layout_id("item", line=3)
                m.invoke(infl, "inflate", [lid], lhs=m.local("k", VIEW), line=3)
                rid = m.view_id("root", line=4)
                m.invoke(m.this, "findViewById", [rid], lhs=m.local("rv", VIEW), line=4)
                m.cast("android.widget.LinearLayout", "rv",
                       lhs=m.local("c", "android.widget.LinearLayout"), line=5)
                m.invoke("c", "addView", ["k"], line=6)
                m.ret()
        resources = ResourceTable()
        resources.add_layout(main)
        resources.add_layout(item)
        resources.freeze_ids()
        manifest = Manifest(package="app")
        manifest.add_activity(ACTIVITY, launcher=True)
        return AndroidApp("t", pb.build(), resources, manifest)

    def test_inflate1_returns_root(self):
        result = analyze(self._app())
        ks = _views(result, "onCreate", "k")
        assert ks == {"FrameLayout_3.1"}

    def test_addview_extends_hierarchy(self):
        result = analyze(self._app())
        views = result.activity_views(ACTIVITY)
        classes = sorted(v.view_class.rsplit(".", 1)[-1] for v in views)
        assert classes == ["FrameLayout", "LinearLayout", "TextView"]

    def test_findview_sees_attached_subtree(self):
        # After addView, activity.findViewById can reach "label".
        app = self._app()
        c = app.program.clazz(ACTIVITY)
        m = c.method("onCreate", 0)
        from repro.ir.builder import MethodBuilder
        mb = MethodBuilder(m)
        m.body.pop()  # drop ret
        lbl = mb.view_id("label", line=7)
        mb.invoke("this", "findViewById", [lbl], lhs=mb.local("l", VIEW), line=7)
        mb.ret()
        result = analyze(app)
        assert _views(result, "onCreate", "l") == {"TextView_3.1.1"}

    def test_fresh_nodes_per_inflation_site(self):
        # The same layout inflated at two sites yields distinct nodes.
        item_root = LayoutNode("android.widget.FrameLayout", id_name="f")
        item = LayoutTree("item", item_root)

        def body(m):
            infl = m.new("android.view.LayoutInflater",
                         lhs=m.local("infl", "android.view.LayoutInflater"), line=2)
            m.invoke(infl, "inflate", [m.layout_id("item", line=3)],
                     lhs=m.local("k1", VIEW), line=3)
            m.invoke(infl, "inflate", [m.layout_id("item", line=4)],
                     lhs=m.local("k2", VIEW), line=4)

        root = LayoutNode("android.widget.LinearLayout", id_name="root")
        app = make_single_activity_app(layout=LayoutTree("main", root), build_on_create=body)
        app.resources.add_layout(item)
        result = analyze(app)
        k1 = _views(result, "onCreate", "k1")
        k2 = _views(result, "onCreate", "k2")
        assert k1 and k2 and k1 != k2


class TestSetIdAndSetListener:
    def test_setid_enables_findview(self):
        def body(m):
            v = m.new("android.widget.TextView",
                      lhs=m.local("v", "android.widget.TextView"), line=2)
            m.invoke(v, "setId", [m.view_id("dynamic", line=3)], line=3)
            rid = m.view_id("root", line=4)
            m.invoke(m.this, "findViewById", [rid], lhs=m.local("rv", VIEW), line=4)
            m.cast("android.widget.LinearLayout", "rv",
                   lhs=m.local("c", "android.widget.LinearLayout"), line=5)
            m.invoke("c", "addView", [v], line=6)
            m.invoke(m.this, "findViewById", [m.view_id("dynamic", line=7)],
                     lhs=m.local("found", VIEW), line=7)

        result = analyze(make_single_activity_app(build_on_create=body))
        assert _views(result, "onCreate", "found") == {"TextView_2"}

    def _listener_app(self):
        pb = ProgramBuilder()
        with pb.clazz("app.Click", implements=["android.view.View$OnClickListener"]) as c:
            with c.method("onClick", params=[("v", VIEW)]) as m:
                m.ret()
        root = LayoutNode("android.widget.LinearLayout", id_name="root")
        root.add_child(LayoutNode("android.widget.Button", id_name="button_a"))
        layout = LayoutTree("main", root)
        with pb.clazz(ACTIVITY, extends="android.app.Activity") as c:
            with c.method("onCreate") as m:
                m.invoke(m.this, "setContentView", [m.layout_id("main", line=1)], line=1)
                m.invoke(m.this, "findViewById", [m.view_id("button_a", line=2)],
                         lhs=m.local("b", VIEW), line=2)
                lst = m.new("app.Click", lhs=m.local("l", "app.Click"), line=3)
                m.invoke("b", "setOnClickListener", [lst], line=4)
                m.ret()
        resources = ResourceTable()
        resources.add_layout(layout)
        resources.freeze_ids()
        manifest = Manifest(package="app")
        manifest.add_activity(ACTIVITY, launcher=True)
        return AndroidApp("t", pb.build(), resources, manifest)

    def test_listener_association(self):
        result = analyze(self._listener_app())
        button = next(v for v in result.activity_views(ACTIVITY)
                      if v.view_class == "android.widget.Button")
        listeners = result.listeners_of(button)
        assert len(listeners) == 1
        assert next(iter(listeners)).class_name == "app.Click"

    def test_callback_modelling(self):
        # The view flows into the handler's parameter; the listener
        # flows into the handler's `this`.
        result = analyze(self._listener_app())
        vs = result.views_at_var("app.Click", "onClick", 1, "v")
        assert {str(v) for v in vs} == {"Button_1.1.1"}
        this_vals = result.values_at_var("app.Click", "onClick", 1, "this")
        assert {v.class_name for v in this_vals} == {"app.Click"}

    def test_gui_tuples(self):
        result = analyze(self._listener_app())
        tuples = result.gui_tuples()
        assert len(tuples) == 1
        t = next(iter(tuples))
        assert t.activity_class == ACTIVITY
        assert str(t.handler) == "app.Click.onClick/1"

    def test_activity_as_listener(self):
        pb = ProgramBuilder()
        root = LayoutNode("android.widget.LinearLayout", id_name="root")
        root.add_child(LayoutNode("android.widget.Button", id_name="button_a"))
        layout = LayoutTree("main", root)
        with pb.clazz(ACTIVITY, extends="android.app.Activity",
                      implements=["android.view.View$OnClickListener"]) as c:
            with c.method("onCreate") as m:
                m.invoke(m.this, "setContentView", [m.layout_id("main", line=1)], line=1)
                m.invoke(m.this, "findViewById", [m.view_id("button_a", line=2)],
                         lhs=m.local("b", VIEW), line=2)
                m.invoke("b", "setOnClickListener", [m.this], line=3)
                m.ret()
            with c.method("onClick", params=[("v", VIEW)]) as m:
                m.ret()
        resources = ResourceTable()
        resources.add_layout(layout)
        resources.freeze_ids()
        manifest = Manifest(package="app")
        manifest.add_activity(ACTIVITY, launcher=True)
        result = analyze(AndroidApp("t", pb.build(), resources, manifest))
        vs = result.views_at_var(ACTIVITY, "onClick", 1, "v")
        assert {str(v) for v in vs} == {"Button_1.1.1"}


class TestCastFiltering:
    def _app(self, filter_casts=True):
        root = LayoutNode("android.widget.LinearLayout")
        root.add_child(LayoutNode("android.widget.Button", id_name="same"))
        root.add_child(LayoutNode("android.widget.ImageView", id_name="same"))
        layout = LayoutTree("main", root)

        def body(m):
            m.invoke(m.this, "findViewById", [m.view_id("same", line=2)],
                     lhs=m.local("x", VIEW), line=2)
            m.cast("android.widget.Button", "x",
                   lhs=m.local("b", "android.widget.Button"), line=3)

        return make_single_activity_app(layout=layout, build_on_create=body)

    def test_cast_filters_incompatible_views(self):
        result = analyze(self._app())
        assert len(_views(result, "onCreate", "x")) == 2
        bs = _views(result, "onCreate", "b")
        assert bs == {"Button_1.1.1"}

    def test_filtering_can_be_disabled(self):
        result = analyze(self._app(), AnalysisOptions(filter_casts=False))
        assert len(_views(result, "onCreate", "b")) == 2


class TestFindView3:
    def _flipper_app(self):
        root = LayoutNode("android.widget.ViewFlipper", id_name="flip")
        child = root.add_child(LayoutNode("android.widget.FrameLayout"))
        child.add_child(LayoutNode("android.widget.TextView", id_name="deep"))
        layout = LayoutTree("main", root)

        def body(m):
            m.invoke(m.this, "findViewById", [m.view_id("flip", line=2)],
                     lhs=m.local("fv", VIEW), line=2)
            m.cast("android.widget.ViewFlipper", "fv",
                   lhs=m.local("f", "android.widget.ViewFlipper"), line=3)
            m.invoke("f", "getCurrentView", [], lhs=m.local("cur", VIEW), line=4)
            m.invoke("f", "findFocus", [], lhs=m.local("foc", VIEW), line=5)

        return make_single_activity_app(layout=layout, build_on_create=body)

    def test_children_only_refinement(self):
        result = analyze(self._flipper_app())
        cur = _views(result, "onCreate", "cur")
        assert cur == {"FrameLayout_1.1.1"}  # direct child only

    def test_descendant_variant(self):
        result = analyze(self._flipper_app())
        foc = _views(result, "onCreate", "foc")
        assert len(foc) == 3  # flipper itself + frame + text

    def test_refinement_can_be_disabled(self):
        result = analyze(
            self._flipper_app(),
            AnalysisOptions(findview3_children_only_refinement=False),
        )
        cur = _views(result, "onCreate", "cur")
        assert len(cur) == 3


class TestGetParent:
    def test_parent_retrieval(self):
        def body(m):
            m.invoke(m.this, "findViewById", [m.view_id("button_a", line=2)],
                     lhs=m.local("b", VIEW), line=2)
            m.invoke("b", "getParent", [], lhs=m.local("p", VIEW), line=3)

        result = analyze(make_single_activity_app(build_on_create=body))
        assert _views(result, "onCreate", "p") == {"LinearLayout_1.1"}


class TestInterprocedural:
    def test_views_flow_through_helper(self):
        pb = ProgramBuilder()
        root = LayoutNode("android.widget.LinearLayout", id_name="root")
        root.add_child(LayoutNode("android.widget.Button", id_name="button_a"))
        layout = LayoutTree("main", root)
        with pb.clazz(ACTIVITY, extends="android.app.Activity") as c:
            with c.method("onCreate") as m:
                m.invoke(m.this, "setContentView", [m.layout_id("main", line=1)], line=1)
                m.invoke(m.this, "findViewById", [m.view_id("button_a", line=2)],
                         lhs=m.local("b", VIEW), line=2)
                m.invoke(m.this, "style", ["b"], line=3)
                m.ret()
            with c.method("style", params=[("v", VIEW)], returns=VIEW) as m:
                m.invoke("v", "setId", [m.view_id("button_a", line=5)], line=5)
                m.ret("v", line=6)
        resources = ResourceTable()
        resources.add_layout(layout)
        resources.freeze_ids()
        manifest = Manifest(package="app")
        manifest.add_activity(ACTIVITY, launcher=True)
        result = analyze(AndroidApp("t", pb.build(), resources, manifest))
        vs = result.views_at_var(ACTIVITY, "style", 1, "v")
        assert {str(v) for v in vs} == {"Button_1.1.1"}
        # And the SetId op inside the helper sees it as receiver.
        setid = result.ops_of_kind(OpKind.SETID)[0]
        assert {str(v) for v in result.op_view_receivers(setid)} == {"Button_1.1.1"}

    def test_fixpoint_terminates_on_recursion(self):
        pb = ProgramBuilder()
        with pb.clazz(ACTIVITY, extends="android.app.Activity") as c:
            with c.method("onCreate") as m:
                m.invoke(m.this, "loop", [m.const_null()], line=1)
                m.ret()
            with c.method("loop", params=[("v", "java.lang.Object")]) as m:
                m.invoke(m.this, "loop", ["v"], line=3)
                m.ret()
        manifest = Manifest(package="app")
        manifest.add_activity(ACTIVITY)
        app = AndroidApp("t", pb.build(), ResourceTable(), manifest)
        result = analyze(app)
        assert result.rounds < 10


def test_solved_analysis_is_freed_without_the_cycle_collector():
    """Dropping a solved analysis frees it by reference counting; a
    reference cycle would keep the whole analysis, graph and app alive
    until the cycle collector runs."""
    import gc

    app = make_single_activity_app()
    gc.collect()
    gc.disable()
    try:
        result = analyze(app)
        assert result.roots_of_activity(ACTIVITY)
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()
