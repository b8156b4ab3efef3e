"""Soundness: the static solution over-approximates concrete executions.

The strongest end-to-end property in the repository — checked on the
running example, hand-built apps, and generated corpus apps, with
multiple interpreter seeds (the seed varies FindView3's choice of
"current" descendant).
"""

import pytest

from repro import AnalysisOptions, analyze
from repro.core.nodes import OpNode
from repro.corpus.apps import spec_by_name
from repro.corpus.generator import generate_app
from repro.semantics import check_soundness, run_app

from conftest import make_single_activity_app


class TestRunningExample:
    def test_sound(self, connectbot_app, connectbot_result):
        run = run_app(connectbot_app)
        report = check_soundness(connectbot_result, run.trace)
        assert report.is_sound
        assert report.checked >= 10

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_sound_for_all_findview3_choices(self, connectbot_app, connectbot_result, seed):
        run = run_app(connectbot_app, seed=seed)
        report = check_soundness(connectbot_result, run.trace)
        assert report.is_sound

    def test_dynamic_terminal_view_created(self, connectbot_app):
        run = run_app(connectbot_app)
        terminal_views = [
            o for o in run.heap.objects
            if o.class_name == "connectbot.TerminalView"
        ]
        assert len(terminal_views) == 1
        # Attached under the inflated item_terminal RelativeLayout.
        assert terminal_views[0].parent is not None
        assert terminal_views[0].parent.class_name == "android.widget.RelativeLayout"


class TestGeneratedCorpus:
    @pytest.mark.parametrize(
        "app_name", ["APV", "NotePad", "SuperGenPass", "TippyTipper", "VuDroid"]
    )
    def test_sound_on_corpus_app(self, app_name):
        app = generate_app(spec_by_name(app_name))
        static = analyze(app)
        run = run_app(app)
        assert not run.budget_exhausted
        report = check_soundness(static, run.trace)
        assert report.violations == []
        assert report.checked > 0

    def test_sound_on_outlier(self):
        app = generate_app(spec_by_name("XBMC"))
        static = analyze(app)
        run = run_app(app)
        report = check_soundness(static, run.trace)
        assert report.violations == []

    def test_sound_check_renders_no_operation(self, monkeypatch):
        """Violation text is built only for a violation: a sound check
        of XBMC never renders an operation node."""
        app = generate_app(spec_by_name("XBMC"))
        static = analyze(app)
        run = run_app(app)

        def refuse(self):
            raise AssertionError(f"rendered {self.kind}")

        monkeypatch.setattr(OpNode, "__str__", refuse)
        report = check_soundness(static, run.trace)
        assert report.violations == []
        assert report.checked > 0

    def test_sound_on_outlier_with_call_site_contexts(self):
        """The interpreter runs the original program: an event at a
        helper's site is held by the original op or a context copy, and
        an allocation by its own node or a copy."""
        app = generate_app(spec_by_name("XBMC"))
        run = run_app(app)
        plain = check_soundness(analyze(app), run.trace)
        refined = analyze(app, AnalysisOptions(call_site_context=True))
        assert refined.contexts
        report = check_soundness(refined, run.trace)
        assert report.violations == []
        assert report.checked == plain.checked > 0


class TestDynamicWithinStatic:
    def test_every_fired_event_has_static_tuple(self, connectbot_app, connectbot_result):
        """Every dynamically fired (activity, view-class, event) has a
        corresponding static GUI tuple."""
        run = run_app(connectbot_app)
        static_tuples = {
            (t.activity_class, t.event.value) for t in connectbot_result.gui_tuples()
        }
        for activity, _view, event in run.fired_events:
            assert (activity, event) in static_tuples

    def test_mutation_breaks_soundness_detection(self):
        """Sanity-check the checker itself: removing the static op makes
        the dynamic fact unexplained and the checker must say so."""
        app = make_single_activity_app()
        static = analyze(app)
        run = run_app(app)
        assert run.trace.events
        # Forge an event at a site with no operation node.
        from dataclasses import replace
        from repro.core.nodes import Site
        from repro.ir.program import MethodSig

        bogus_site = Site(MethodSig("app.Nowhere", "m", 0), 99, 1234)
        forged = replace(run.trace.events[0], site=bogus_site)
        run.trace.events.append(forged)
        report = check_soundness(static, run.trace)
        assert not report.is_sound
        assert any("no static operation node" in v for v in report.violations)

    def test_violation_names_operation_and_port(self):
        """A violation names the op and the port checked, as ``<op>
        <port>: ...``."""
        from dataclasses import replace

        from repro.core.nodes import Site
        from repro.ir.program import MethodSig
        from repro.semantics.values import AllocTag

        app = make_single_activity_app()
        static = analyze(app)
        run = run_app(app)
        event = run.trace.events[0]
        op = next(o for o in static.graph.ops() if o.site == event.site)
        ghost = AllocTag(Site(MethodSig("app.Nowhere", "m", 0), 99, 1234))
        run.trace.events[:] = [replace(event, receiver=ghost)]
        report = check_soundness(static, run.trace)
        assert report.violations == [f"{op} receiver: no static abstraction for {ghost}"]
