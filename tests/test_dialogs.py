"""Tests for dialog modelling.

Section 3.2 notes that "similar inflation operations exist for objects
other than activities (e.g., for dialogs) and can be modeled in the
same manner" — dialogs are allocation-site abstractions that hold root
hierarchies (ROOT edges), support ``setContentView`` (both overloads)
and ``findViewById``.
"""

import pytest

from repro import analyze
from repro.core.graph import RelKind
from repro.frontend import load_app_from_sources
from repro.platform.api import OpKind
from repro.semantics import check_soundness, run_app

SOURCE = """
package app;

import android.app.Activity;
import android.app.Dialog;
import android.view.View;
import android.widget.Button;

class Main extends Activity {
    void onCreate() {
        this.setContentView(R.layout.main);
        Dialog d = new Dialog();
        d.setContentView(R.layout.prompt);
        View b = d.findViewById(R.id.confirm);
        Button confirm = (Button) b;
        Ok ok = new Ok();
        confirm.setOnClickListener(ok);
    }
}

class Ok implements View.OnClickListener {
    void onClick(View v) { }
}
"""

LAYOUTS = {
    "main": '<LinearLayout android:id="@+id/root"/>',
    "prompt": ('<LinearLayout><TextView android:id="@+id/message"/>'
               '<Button android:id="@+id/confirm"/></LinearLayout>'),
}


@pytest.fixture(scope="module")
def dialog_app():
    return load_app_from_sources("dlg", [SOURCE], LAYOUTS)


@pytest.fixture(scope="module")
def dialog_result(dialog_app):
    return analyze(dialog_app)


class TestDialogStatics:
    def test_set_content_view_int_is_inflate2(self, dialog_result):
        inflates = dialog_result.ops_of_kind(OpKind.INFLATE2)
        assert len(inflates) == 2  # activity + dialog

    def test_dialog_find_view_is_findview2(self, dialog_result):
        finds = dialog_result.ops_of_kind(OpKind.FINDVIEW2)
        assert len(finds) == 1

    def test_dialog_lookup_resolves(self, dialog_result):
        views = dialog_result.views_at_var("app.Main", "onCreate", 0, "b")
        assert {v.view_class for v in views} == {"android.widget.Button"}

    def test_dialog_root_edge(self, dialog_result):
        dialog_alloc = next(
            a for a in dialog_result.graph.allocs()
            if a.class_name == "android.app.Dialog"
        )
        roots = dialog_result.graph.rel(RelKind.ROOT, dialog_alloc)
        assert len(roots) == 1
        root = next(iter(roots))
        assert root.layout == "prompt"

    def test_listener_via_dialog_view(self, dialog_result):
        confirm = next(
            v for v in dialog_result.graph.infl_view_nodes()
            if v.id_name == "confirm"
        )
        listeners = dialog_result.listeners_of(confirm)
        assert {v.class_name for v in listeners} == {"app.Ok"}

    def test_handler_receives_dialog_button(self, dialog_result):
        views = dialog_result.views_at_var("app.Ok", "onClick", 1, "v")
        assert {v.id_name for v in views} == {"confirm"}


class TestDialogDynamics:
    def test_interpreter_inflates_dialog(self, dialog_app):
        run = run_app(dialog_app)
        dialogs = [o for o in run.heap.objects
                   if o.class_name == "android.app.Dialog"]
        assert len(dialogs) == 1
        assert dialogs[0].root is not None
        assert dialogs[0].root.find_view_by_id(
            dialog_app.resources.view_id("confirm")
        ) is not None

    def test_soundness(self, dialog_app, dialog_result):
        run = run_app(dialog_app)
        report = check_soundness(dialog_result, run.trace)
        assert report.violations == []


class TestSetContentViewViewOverload:
    def test_addview1_with_existing_view(self):
        source = """
        package app;
        import android.app.Activity;
        import android.view.LayoutInflater;
        import android.view.View;
        class Main extends Activity {
            void onCreate() {
                LayoutInflater infl = new LayoutInflater();
                View root = infl.inflate(R.layout.main);
                this.setContentView(root);
                View x = this.findViewById(R.id.root);
            }
        }
        """
        result = analyze(load_app_from_sources(
            "t", [source], {"main": '<LinearLayout android:id="@+id/root"/>'}
        ))
        assert result.ops_of_kind(OpKind.ADDVIEW1)
        views = result.views_at_var("app.Main", "onCreate", 0, "x")
        assert len(views) == 1
