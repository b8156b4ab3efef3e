"""Tests for the context-sensitivity refinement and the baseline."""

import hashlib
import json
import os

import pytest

from repro import AnalysisOptions, analyze
from repro.app import AndroidApp
from repro.baseline import andersen_analyze
from repro.core.diff import solution_fingerprint
from repro.core.metrics import compute_precision
from repro.corpus.apps import spec_by_name
from repro.corpus.generator import generate_app
from repro.frontend import load_app_from_dir, load_app_from_sources
from repro.ir.program import MethodSig
from repro.platform.api import OpKind

SHARED_HELPER_SOURCE = """
package app;
import android.app.Activity;
import android.view.View;

class A extends Activity {
    void onCreate() {
        this.setContentView(R.layout.a);
        View x = this.findViewById(R.id.ax);
        Util.tag(x);
    }
}
class B extends Activity {
    void onCreate() {
        this.setContentView(R.layout.b);
        View y = this.findViewById(R.id.by);
        Util.tag(y);
    }
}
class Util {
    static void tag(View v) {
        v.setId(R.id.tagged);
    }
}
"""

LAYOUTS = {
    "a": '<LinearLayout><TextView android:id="@+id/ax"/></LinearLayout>',
    "b": '<LinearLayout><TextView android:id="@+id/by"/></LinearLayout>',
}


def _with_contexts(app):
    return analyze(app, AnalysisOptions(call_site_context=True))


def _fingerprint_hash(result):
    """sha256 prefix of the solution fingerprint without its ``app`` entry."""
    fingerprint = solution_fingerprint(result)
    fingerprint.pop("app")
    encoded = json.dumps(fingerprint, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


class TestCloning:
    """1-call-site contexts (``AnalysisOptions.call_site_context``)."""

    def _app(self):
        return load_app_from_sources("t", [SHARED_HELPER_SOURCE], LAYOUTS)

    def test_insensitive_merges_receivers(self):
        result = analyze(self._app())
        setid = result.ops_of_kind(OpKind.SETID)[0]
        assert len(result.op_view_receivers(setid)) == 2
        assert result.contexts == {}

    def test_cloning_splits_receivers(self):
        result = _with_contexts(self._app())
        assert sum(len(sigs) for sigs in result.contexts.values()) == 2
        populated = [
            op for op in result.ops_of_kind(OpKind.SETID)
            if result.op_view_receivers(op)
        ]
        assert len(populated) == 2
        for op in populated:
            assert len(result.op_view_receivers(op)) == 1

    def test_original_app_untouched(self):
        app = self._app()
        before = len(app.program.clazz("app.Util").methods)
        _with_contexts(app)
        assert len(app.program.clazz("app.Util").methods) == before
        assert all("__ctx" not in m.name for m in app.program.application_methods())

    def test_clone_origin_mapping(self):
        result = _with_contexts(self._app())
        assert {str(o) for o in result.contexts} == {"app.Util.tag/1"}
        assert [str(c) for c in result.contexts[MethodSig("app.Util", "tag", 1)]] == [
            "app.Util.tag__ctx0/1",
            "app.Util.tag__ctx1/1",
        ]

    def test_single_caller_not_cloned(self):
        source = SHARED_HELPER_SOURCE.replace(
            """class B extends Activity {
    void onCreate() {
        this.setContentView(R.layout.b);
        View y = this.findViewById(R.id.by);
        Util.tag(y);
    }
}""",
            "class B { }",
        )
        app = load_app_from_sources("t", [source], LAYOUTS)
        result = _with_contexts(app)
        assert result.contexts == {}

    def test_xbmc_receivers_drop(self):
        app = generate_app(spec_by_name("XBMC"))
        base = compute_precision(analyze(app)).receivers
        refined = compute_precision(_with_contexts(app)).receivers
        assert base == pytest.approx(8.81, abs=0.25)
        assert refined == pytest.approx(3.59, abs=0.5)

    def test_precise_app_unchanged(self):
        app = generate_app(spec_by_name("APV"))
        base = compute_precision(analyze(app)).receivers
        refined = compute_precision(_with_contexts(app)).receivers
        assert base == refined == pytest.approx(1.0)


# Call sites are numbered per candidate in (str(caller), index) order,
# and each calling site of a candidate gets its own context.
class TestContextSites:
    def test_sites_call_their_own_context(self):
        result = _with_contexts(load_app_from_sources("t", [SHARED_HELPER_SOURCE], LAYOUTS))
        calls = {
            str(caller): [str(t) for t in targets]
            for caller, _index, _stmt, targets in result.invoke_sites
            if targets
        }
        assert calls == {
            "app.A.onCreate/0": ["app.Util.tag__ctx0/1"],
            "app.B.onCreate/0": ["app.Util.tag__ctx1/1"],
        }
        # The original keeps its own translation, reached from no site.
        tag = MethodSig("app.Util", "tag", 1)
        assert result.graph.lookup_var(tag, "v") is not None
        assert result.values_at_var("app.Util", "tag", 1, "v") == set()
        assert len(result.values_at_var("app.Util", "tag__ctx0", 1, "v")) == 1

    def test_sites_numbered_by_caller_name(self):
        # B's calling site comes first in program order, A's by name.
        src = SHARED_HELPER_SOURCE
        a, b, util = src.index("class A"), src.index("class B"), src.index("class Util")
        source = src[:a] + src[b:util] + src[a:b] + src[util:]
        result = _with_contexts(load_app_from_sources("t", [source], LAYOUTS))
        assert [str(caller) for caller, *_ in result.invoke_sites][:2] == [
            "app.B.onCreate/0",
            "app.B.onCreate/0",
        ]
        calls = {
            str(caller): [str(t) for t in targets]
            for caller, _index, _stmt, targets in result.invoke_sites
            if targets
        }
        assert calls == {
            "app.A.onCreate/0": ["app.Util.tag__ctx0/1"],
            "app.B.onCreate/0": ["app.Util.tag__ctx1/1"],
        }

    def test_option_off_builds_no_context(self):
        app = load_app_from_sources("t", [SHARED_HELPER_SOURCE], LAYOUTS)
        result = analyze(app)
        assert all(
            "__ctx" not in str(t)
            for _caller, _index, _stmt, targets in result.invoke_sites
            for t in targets
        )
        assert not any("__ctx" in str(node) for node in result.graph.node_list)

    def test_non_cloning_app_matches_plain_analysis(self):
        app = generate_app(spec_by_name("APV"))
        result = _with_contexts(app)
        assert result.contexts == {}
        assert _fingerprint_hash(result) == _fingerprint_hash(analyze(app))


# An overridden helper, which cloning by name could not split: the
# override at the same sites must keep its receivers.
OVERRIDDEN_HELPER_SOURCE = """
package app;
import android.app.Activity;
import android.view.View;

class A extends Activity {
    void onCreate() {
        this.setContentView(R.layout.a);
        View x = this.findViewById(R.id.ax);
        Helper h = new Helper();
        h.tag(x);
    }
}
class B extends Activity {
    void onCreate() {
        this.setContentView(R.layout.b);
        View y = this.findViewById(R.id.by);
        Helper h = new SubHelper();
        h.tag(y);
    }
}
class Helper {
    void tag(View v) {
        v.setId(R.id.tagged);
    }
}
class SubHelper extends Helper {
    void tag(View v) {
        v.setId(R.id.subtagged);
    }
}
"""


class TestOverriddenHelper:
    def _app(self):
        return load_app_from_sources("t", [OVERRIDDEN_HELPER_SOURCE], LAYOUTS)

    def _setid_receivers(self, result, class_name):
        found = {}
        for op in result.ops_of_kind(OpKind.SETID):
            if op.site.method.class_name == class_name:
                views = {v.id_name for v in result.op_view_receivers(op)}
                found[op.site.method.name] = views
        return found

    def test_insensitive_receivers_merge(self):
        result = analyze(self._app())
        assert self._setid_receivers(result, "app.Helper") == {"tag": {"ax", "by"}}
        assert self._setid_receivers(result, "app.SubHelper") == {"tag": {"ax", "by"}}

    def test_helper_receivers_split_per_context(self):
        result = _with_contexts(self._app())
        assert {str(o): len(c) for o, c in result.contexts.items()} == {
            "app.Helper.tag/1": 2,
            "app.SubHelper.tag/1": 2,
        }
        assert self._setid_receivers(result, "app.Helper") == {
            "tag": set(),
            "tag__ctx0": {"ax"},
            "tag__ctx1": {"by"},
        }

    def test_override_keeps_its_receivers(self):
        insensitive = self._setid_receivers(analyze(self._app()), "app.SubHelper")
        sensitive = self._setid_receivers(_with_contexts(self._app()), "app.SubHelper")
        assert sensitive == {"tag": set(), "tag__ctx0": {"ax"}, "tag__ctx1": {"by"}}
        assert set().union(*sensitive.values()) == insensitive["tag"]

    def test_each_site_calls_both_targets(self):
        result = _with_contexts(self._app())
        calls = {
            str(caller): sorted(str(t) for t in targets)
            for caller, _index, _stmt, targets in result.invoke_sites
            if targets
        }
        assert calls == {
            "app.A.onCreate/0": ["app.Helper.tag__ctx0/1", "app.SubHelper.tag__ctx0/1"],
            "app.B.onCreate/0": ["app.Helper.tag__ctx1/1", "app.SubHelper.tag__ctx1/1"],
        }


# Per app that gets contexts: their number, and the sha256 prefix of
# the solution fingerprint (without ``app``) that program-copying
# cloning (each candidate copied once per calling site, callers
# redirected by name) produced for the same app before contexts moved
# into the builder.
CLONING_FINGERPRINTS = {
    "Astrid": (6, "7dc932c450d32fb3"),
    "Beem": (2, "57761e7153d2430b"),
    "FBReader": (3, "efc783798ce5c958"),
    "K9": (2, "b7cda29dbba4f7ed"),
    "KeePassDroid": (4, "601d453f312fc26e"),
    "Mileage": (5, "0fc95612d2025e6c"),
    "MyTracks": (2, "17c78d1f0b3ed21e"),
    "NPR": (4, "2f29314132f33958"),
    "OpenManager": (3, "cb702c45d59f741f"),
    "OpenSudoku": (3, "8c8808cd87d9eadc"),
    "SuperGenPass": (4, "10b6daabb57e5951"),
    "TippyTipper": (2, "6462dd483c3c419b"),
    "VLC": (2, "428096e66f0536a0"),
    "XBMC": (4, "e55b0eb2b002e7a5"),
}
NOTEPAD = os.path.join(os.path.dirname(__file__), "..", "examples", "projects", "notepad")


class TestSameSolutionAsCloning:
    @pytest.mark.parametrize("name", sorted(CLONING_FINGERPRINTS))
    def test_corpus_app(self, name):
        result = _with_contexts(generate_app(spec_by_name(name)))
        contexts, digest = CLONING_FINGERPRINTS[name]
        assert sum(len(sigs) for sigs in result.contexts.values()) == contexts
        assert _fingerprint_hash(result) == digest

    def test_notepad(self):
        result = _with_contexts(load_app_from_dir(NOTEPAD))
        assert sum(len(sigs) for sigs in result.contexts.values()) == 2
        assert _fingerprint_hash(result) == "0f66f933135ca697"

    def test_shared_helper_fixture(self):
        app = load_app_from_sources("t", [SHARED_HELPER_SOURCE], LAYOUTS)
        assert _fingerprint_hash(_with_contexts(app)) == "6cba5b09e592a00f"


class TestBaseline:
    def test_findview_unresolved(self, connectbot_app):
        result = andersen_analyze(connectbot_app)
        assert result.findview_sites
        assert all(not result.is_resolved(s) for s in result.findview_sites)

    def test_plain_java_flow_still_works(self):
        source = """
        package app;
        class A {
            Object f;
            Object mk() {
                A a = new A();
                this.f = a;
                Object x = this.f;
                return x;
            }
        }
        """
        app = load_app_from_sources("t", [source])
        result = andersen_analyze(app)
        values = result.values_at_var("app.A", "mk", 0, "x")
        assert len(values) == 1
        assert next(iter(values)).class_name == "app.A"

    def test_activities_modelled(self):
        source = """
        package app;
        import android.app.Activity;
        class Main extends Activity {
            void onCreate() { }
        }
        """
        app = load_app_from_sources("t", [source])
        result = andersen_analyze(app)
        this_values = result.values_at_var("app.Main", "onCreate", 0, "this")
        assert {getattr(v, "class_name", None) for v in this_values} == {"app.Main"}

    def test_opaque_values_propagate(self, connectbot_app):
        result = andersen_analyze(connectbot_app)
        from repro.baseline import OpaqueValue

        e_values = result.values_at_var(
            "connectbot.ConsoleActivity", "onCreate", 0, "e"
        )
        assert any(isinstance(v, OpaqueValue) for v in e_values)
