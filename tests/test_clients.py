"""Tests for the Section 6 client analyses."""

import os
import runpy
import sys

import pytest

from repro import analyze
from repro.clients import (
    build_gui_model,
    build_transition_graph,
    run_error_checks,
    run_taint_analysis,
)
from repro.core.nodes import Site
from repro.frontend import load_app_from_dir, load_app_from_sources
from repro.ir.program import MethodSig
from repro.ir.statements import Cast, Invoke
from repro.lint import run_lint
from repro.lint.rules import rule_by_id
from repro.platform.api import OpKind
from repro.platform.events import EventKind

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


@pytest.fixture(scope="module")
def shop_result():
    source = """
    package shop;
    import android.app.Activity;
    import android.view.View;
    import android.widget.Button;

    class Home extends Activity {
        void launch() { }
        void onCreate() {
            this.setContentView(R.layout.home);
            View b = this.findViewById(R.id.go);
            Button go = (Button) b;
            GoHandler h = new GoHandler();
            go.setOnClickListener(h);
        }
    }
    class Detail extends Activity {
        void launch() { }
        void onCreate() { this.setContentView(R.layout.detail); }
    }
    class GoHandler implements View.OnClickListener {
        void onClick(View v) {
            Detail d = new Detail();
            d.launch();
        }
    }
    """
    layouts = {
        "home": '<LinearLayout><Button android:id="@+id/go"/></LinearLayout>',
        "detail": '<LinearLayout><TextView android:id="@+id/body"/></LinearLayout>',
    }
    return analyze(load_app_from_sources("shop", [source], layouts))


class TestTransitionGraph:
    def test_tuple_extracted(self, shop_result):
        graph = build_transition_graph(shop_result)
        assert len(graph.tuples) == 1
        t = graph.tuples[0]
        assert t.activity_class == "shop.Home"
        assert t.event is EventKind.CLICK

    def test_transition_edge(self, shop_result):
        graph = build_transition_graph(shop_result)
        assert graph.successors("shop.Home") == {"shop.Detail"}
        assert graph.successors("shop.Detail") == set()

    def test_dot_rendering(self, shop_result):
        dot = build_transition_graph(shop_result).to_dot()
        assert '"Home" -> "Detail"' in dot
        assert "click" in dot


def _nav_app():
    """Three handlers: one reaches ``new Detail`` only through CHA
    dispatch to a subclass override two calls deep, one is in a
    mutual-recursion cycle that instantiates ``Settings``, and one
    instantiates no activity."""
    source = """
    package nav;
    import android.app.Activity;
    import android.view.View;
    import android.widget.Button;

    class Home extends Activity {
        void onCreate() {
            this.setContentView(R.layout.home);
            Button deep = (Button) this.findViewById(R.id.deep);
            deep.setOnClickListener(new DeepHandler());
            Button loop = (Button) this.findViewById(R.id.loop);
            loop.setOnClickListener(new LoopHandler());
            Button stay = (Button) this.findViewById(R.id.stay);
            stay.setOnClickListener(new StayHandler());
        }
    }
    class Detail extends Activity {
        void onCreate() { this.setContentView(R.layout.home); }
    }
    class Settings extends Activity {
        void onCreate() { this.setContentView(R.layout.home); }
    }
    class Step {
        void go() { this.next(); }
        void next() { }
    }
    class FastStep extends Step {
        void next() { Detail d = new Detail(); }
    }
    class Note {
        void touch() { Note n = new Note(); }
    }
    class DeepHandler implements View.OnClickListener {
        void onClick(View v) {
            Step s = new Step();
            s.go();
        }
    }
    class LoopHandler implements View.OnClickListener {
        void onClick(View v) { this.bounce(v); }
        void bounce(View v) {
            Settings s = new Settings();
            this.onClick(v);
        }
    }
    class StayHandler implements View.OnClickListener {
        void onClick(View v) {
            Note n = new Note();
            n.touch();
        }
    }
    """
    layout = (
        '<LinearLayout><Button android:id="@+id/deep"/>'
        '<Button android:id="@+id/loop"/><Button android:id="@+id/stay"/>'
        "</LinearLayout>"
    )
    return load_app_from_sources("nav", [source], {"home": layout})


@pytest.fixture(scope="module")
def nav_result():
    return analyze(_nav_app())


class TestTransitionWalk:
    @staticmethod
    def _targets(graph, handler_class):
        return {
            t.target for t in graph.transitions
            if t.trigger.handler.class_name == handler_class
        }

    def test_one_call_graph_per_build(self, nav_result, monkeypatch):
        import repro.clients.transitions as transitions

        calls = []
        real = transitions.build_call_graph

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(transitions, "build_call_graph", counting)
        graph = build_transition_graph(nav_result)
        assert len({t.handler for t in graph.tuples}) == 3
        assert len(calls) == 1

    def test_edge_through_subclass_override_two_calls_deep(self, nav_result):
        graph = build_transition_graph(nav_result)
        assert self._targets(graph, "nav.DeepHandler") == {"nav.Detail"}

    def test_handler_in_recursion_cycle(self, nav_result):
        graph = build_transition_graph(nav_result)
        assert self._targets(graph, "nav.LoopHandler") == {"nav.Settings"}

    def test_handler_without_activity_has_no_edge(self, nav_result):
        graph = build_transition_graph(nav_result)
        assert any(t.handler.class_name == "nav.StayHandler" for t in graph.tuples)
        assert self._targets(graph, "nav.StayHandler") == set()
        assert graph.successors("nav.Home") == {"nav.Detail", "nav.Settings"}

    def test_edge_through_op_site_with_application_target(self):
        """A static ``inflate`` declared on an application View subclass
        is an Inflate1 op site and also has an application target. The
        builder adds no call edge there, but the call graph keeps it."""
        source = """
        package opsite;
        import android.app.Activity;
        import android.view.View;
        import android.widget.Button;

        class Home extends Activity {
            void onCreate() {
                this.setContentView(R.layout.home);
                Button go = (Button) this.findViewById(R.id.go);
                go.setOnClickListener(new GoHandler());
            }
        }
        class Detail extends Activity {
            void onCreate() { this.setContentView(R.layout.home); }
        }
        class Fancy extends View {
            static View inflate(View parent, int layout, View root) {
                Detail d = new Detail();
                return parent;
            }
        }
        class GoHandler implements View.OnClickListener {
            void onClick(View v) {
                View made = Fancy.inflate(v, R.layout.home, v);
            }
        }
        """
        layout = '<LinearLayout><Button android:id="@+id/go"/></LinearLayout>'
        result = analyze(load_app_from_sources("opsite", [source], {"home": layout}))
        handler = MethodSig("opsite.GoHandler", "onClick", 1)
        (_caller, index, stmt, targets), = [
            site for site in result.invoke_sites if site[0] == handler
        ]
        assert stmt.method_name == "inflate"
        op = result.graph.op_at(Site(handler, index, stmt.line))
        assert op.kind is OpKind.INFLATE1
        assert targets == (MethodSig("opsite.Fancy", "inflate", 3),)
        graph = build_transition_graph(result)
        assert graph.successors("opsite.Home") == {"opsite.Detail"}


class TestGuiModel:
    def test_widgets_enumerated(self, shop_result):
        model = build_gui_model(shop_result)
        assert set(model.activities) == {"shop.Home", "shop.Detail"}
        assert model.total_widgets() == 4  # 2 roots + button + textview

    def test_interactive_widgets(self, shop_result):
        model = build_gui_model(shop_result)
        assert model.total_interactive() == 1
        widget = model.activities["shop.Home"].interactive_widgets()[0]
        assert widget.view_class == "android.widget.Button"
        assert widget.handlers[0][0] is EventKind.CLICK

    def test_text_rendering(self, shop_result):
        text = build_gui_model(shop_result).to_text()
        assert "Button ids=go handlers=[click->shop.GoHandler.onClick/1]" in text

    def test_dot_rendering(self, shop_result):
        dot = build_gui_model(shop_result).to_dot()
        assert "digraph gui" in dot
        assert "Button" in dot


class TestTaint:
    def test_password_flow_detected(self):
        source = """
        package app;
        import android.app.Activity;
        import android.view.View;
        import android.widget.EditText;

        class A extends Activity {
            void onCreate() {
                this.setContentView(R.layout.f);
                View p = this.findViewById(R.id.pw);
                EditText pw = (EditText) p;
                Net n = new Net();
                n.upload(pw);
            }
        }
        class Net { void upload(View v) { } }
        """
        layout = '<LinearLayout><EditText android:id="@+id/pw"/></LinearLayout>'
        result = analyze(load_app_from_sources("app", [source], {"f": layout}))
        findings = run_taint_analysis(result)
        assert len(findings) == 1
        assert findings[0].sink_method == "upload"
        assert "EditText" in str(findings[0].source)

    def test_no_findings_without_sources(self, shop_result):
        assert run_taint_analysis(shop_result) == []

    def test_flow_through_handler(self):
        source = """
        package app;
        import android.app.Activity;
        import android.view.View;
        import android.widget.Button;
        import android.widget.EditText;

        class A extends Activity {
            void onCreate() {
                this.setContentView(R.layout.f);
                View b = this.findViewById(R.id.ok);
                Button ok = (Button) b;
                H h = new H(this);
                ok.setOnClickListener(h);
            }
        }
        class H implements View.OnClickListener {
            A act;
            H(A a) { this.act = a; }
            void onClick(View v) {
                View p = this.act.findViewById(R.id.pw);
                Net n = new Net();
                n.post(p);
            }
        }
        class Net { void post(View v) { } }
        """
        layout = ('<LinearLayout><EditText android:id="@+id/pw"/>'
                  '<Button android:id="@+id/ok"/></LinearLayout>')
        result = analyze(load_app_from_sources("app", [source], {"f": layout}))
        findings = run_taint_analysis(result)
        assert findings and findings[0].sink_method == "post"


class TestErrorChecks:
    def test_clean_app_is_clean(self, shop_result):
        report = run_error_checks(shop_result)
        assert len(report) == 0

    def test_unresolved_lookup(self):
        source = """
        package app;
        import android.app.Activity;
        import android.view.View;
        class A extends Activity {
            void onCreate() {
                this.setContentView(R.layout.f);
                View x = this.findViewById(R.id.ghost);
            }
        }
        """
        layout = '<LinearLayout><TextView android:id="@+id/real"/></LinearLayout>'
        result = analyze(load_app_from_sources("app", [source], {"f": layout}))
        report = run_error_checks(result)
        assert report.by_check("unresolved-lookup")

    def test_bad_cast(self):
        source = """
        package app;
        import android.app.Activity;
        import android.view.View;
        import android.widget.Button;
        class A extends Activity {
            void onCreate() {
                this.setContentView(R.layout.f);
                View x = this.findViewById(R.id.pic);
                Button b = (Button) x;
            }
        }
        """
        layout = '<LinearLayout><ImageView android:id="@+id/pic"/></LinearLayout>'
        result = analyze(load_app_from_sources("app", [source], {"f": layout}))
        report = run_error_checks(result)
        assert report.by_check("bad-cast")

    def test_dead_listener(self):
        source = """
        package app;
        import android.app.Activity;
        import android.view.View;
        class A extends Activity {
            void onCreate() {
                this.setContentView(R.layout.f);
                Dead d = new Dead();
            }
        }
        class Dead implements View.OnClickListener {
            void onClick(View v) { }
        }
        """
        layout = "<LinearLayout/>"
        result = analyze(load_app_from_sources("app", [source], {"f": layout}))
        report = run_error_checks(result)
        dead = report.by_check("dead-listener")
        assert len(dead) == 1


def _notepad_app():
    return load_app_from_dir(os.path.join(EXAMPLES, "projects", "notepad"))


def _example_script_app(script, name, layout_var, layout_name):
    """The app an ``examples/`` script analyzes, rebuilt from its globals."""
    ns = runpy.run_path(os.path.join(EXAMPLES, script))
    return load_app_from_sources(name, [ns["SOURCE"]], {layout_name: ns[layout_var]})


def _order_app():
    """Taint sinks and casts whose program order is not their sorted
    order: methods and classes appear in reverse name order."""
    source = """
    package order;
    import android.app.Activity;
    import android.view.View;
    import android.widget.Button;
    import android.widget.EditText;

    class Zeta extends Activity {
        void onCreate() {
            this.setContentView(R.layout.f);
            View p = this.findViewById(R.id.pw);
            Net n = new Net();
            n.upload(p);
            Button b = (Button) p;
            View q = this.findViewById(R.id.any);
            EditText e = (EditText) q;
            n.post(q);
            this.later(p);
        }
        void later(View v) {
            Net n = new Net();
            n.upload(v);
            Button b = (Button) v;
        }
    }
    class Alpha extends Activity {
        void onCreate() {
            this.setContentView(R.layout.f);
            View p = this.findViewById(R.id.pw);
            Net n = new Net();
            n.log(p);
            Button b = (Button) p;
        }
    }
    class Net {
        void upload(View v) { }
        void post(View v) { }
        void log(View v) { }
    }
    """
    layout = (
        '<LinearLayout><EditText android:id="@+id/pw"/>'
        '<EditText android:id="@+id/any"/><Button android:id="@+id/any"/>'
        "</LinearLayout>"
    )
    return load_app_from_sources("order", [source], {"f": layout})


FIXTURE_APPS = {
    "notepad": _notepad_app,
    "buggy": lambda: load_app_from_dir(os.path.join(EXAMPLES, "projects", "buggy")),
    "security_audit": lambda: _example_script_app(
        "security_audit.py", "login", "LOGIN_LAYOUT", "login"
    ),
    "error_checking": lambda: _example_script_app(
        "error_checking.py", "buggy", "LAYOUT", "screen"
    ),
    "nav": _nav_app,
    "order": _order_app,
}


def _application_invokes(program):
    return sum(
        isinstance(stmt, Invoke)
        for method in program.application_methods()
        for stmt in method.body
    )


class TestOneResolutionPerSite:
    """The builder resolves each invoke site once; no client resolves."""

    @pytest.mark.parametrize("name", ["notepad", "nav"])
    def test_resolve_invoke_once_per_invoke(self, name, monkeypatch):
        from repro.hierarchy import callgraph

        real = callgraph.resolve_invoke
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        bound = [
            module for module in list(sys.modules.values())
            if getattr(module, "resolve_invoke", None) is real
        ]
        assert {m.__name__ for m in bound} >= {
            "repro.core.builder", "repro.hierarchy.callgraph"
        }
        for module in bound:
            monkeypatch.setattr(module, "resolve_invoke", counting)
        app = FIXTURE_APPS[name]()
        result = analyze(app)
        build_transition_graph(result)
        run_error_checks(result)
        run_taint_analysis(result)
        run_lint(result)
        invokes = _application_invokes(app.program)
        assert invokes > 0
        assert len(calls) == invokes
        assert len({id(stmt) for stmt in calls}) == invokes


def _body_order(program):
    """(caller, index) -> position in a walk of every application body."""
    position = {}
    for method in program.application_methods():
        for index in range(len(method.body)):
            position[(method.sig, index)] = len(position)
    return position


class TestSiteOrder:
    """Site tables, taint findings and cast findings follow program order."""

    @pytest.fixture(scope="class", params=sorted(FIXTURE_APPS))
    def fixture_result(self, request):
        return analyze(FIXTURE_APPS[request.param]())

    def test_tables_match_a_body_walk(self, fixture_result):
        methods = list(fixture_result.app.program.application_methods())

        def walk(kind):
            return [
                (m.sig, i, s) for m in methods for i, s in enumerate(m.body)
                if isinstance(s, kind)
            ]

        assert [site[:3] for site in fixture_result.invoke_sites] == walk(Invoke)
        assert fixture_result.cast_sites == walk(Cast)

    def test_taint_findings_in_program_order(self, fixture_result):
        position = _body_order(fixture_result.app.program)
        findings = run_taint_analysis(fixture_result)

        def key(f):
            return position[(f.sink_site.method, f.sink_site.index)]

        assert findings == sorted(findings, key=key)

    @pytest.mark.parametrize("rule_id", ["GUI003", "GUI004"])
    def test_cast_findings_in_program_order(self, fixture_result, rule_id):
        position = _body_order(fixture_result.app.program)
        findings = list(rule_by_id(rule_id).check(fixture_result))

        def key(f):
            return position[(f.site.method, f.site.index)]

        assert findings == sorted(findings, key=key)

    def test_order_fixture_has_findings_out_of_name_order(self):
        result = analyze(_order_app())
        taint = [
            (str(f.sink_site.method), f.sink_method) for f in run_taint_analysis(result)
        ]
        assert taint == [
            ("order.Zeta.onCreate/0", "upload"),
            ("order.Zeta.onCreate/0", "post"),
            ("order.Zeta.later/1", "upload"),
            ("order.Alpha.onCreate/0", "log"),
        ]
        bad = [str(f.site.method) for f in rule_by_id("GUI003").check(result)]
        suspicious = [str(f.site.method) for f in rule_by_id("GUI004").check(result)]
        assert bad == [
            "order.Zeta.onCreate/0", "order.Zeta.later/1", "order.Alpha.onCreate/0"
        ]
        assert suspicious == ["order.Zeta.onCreate/0"]
