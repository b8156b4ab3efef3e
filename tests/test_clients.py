"""Tests for the Section 6 client analyses."""

import pytest

from repro import analyze
from repro.clients import (
    build_gui_model,
    build_transition_graph,
    run_error_checks,
    run_taint_analysis,
)
from repro.frontend import load_app_from_sources
from repro.platform.events import EventKind


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


@pytest.fixture(scope="module")
def nav_result():
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
    return analyze(load_app_from_sources("nav", [source], {"home": layout}))


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
