"""Tests for the `repro.obs` observability layer.

Covers the tracer primitives (span nesting/timing under a fake clock,
counters, events, JSON round-tripping), the solver instrumentation
(hand-computed rule firings, solver-effort invariants on the notepad
example), the off-by-default guarantee (`OFF` records nothing,
results are identical with a tracer), the `converged` bugfix, and the
`--profile` / `--profile-json` surface of `analyze`, `lint` and
`batch`.
"""

import json
import os

import pytest

from repro import analyze
from repro.__main__ import main
from repro.core.analysis import AnalysisOptions
from repro.frontend import load_app_from_dir, load_app_from_sources
from repro.obs import OFF, Tracer, names, snapshot, to_json
from repro.platform.api import OpKind

NOTEPAD = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "examples", "projects", "notepad")
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0  # non-zero epoch: exports must be epoch-relative

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- tracer primitives -------------------------------------------------------


class TestTracer:
    def test_spans_nest_and_time(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", label="x"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.25)
            clock.advance(0.5)
        outer, inner = tracer.spans
        assert (outer.name, outer.parent, outer.start) == ("outer", None, 0.0)
        assert outer.seconds == pytest.approx(1.75)
        assert outer.attrs == {"label": "x"}
        assert (inner.name, inner.parent) == ("inner", 0)
        assert inner.start == pytest.approx(1.0)
        assert inner.seconds == pytest.approx(0.25)

    def test_sibling_spans_share_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("solve"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        assert [s.parent for s in tracer.spans] == [None, 0, 0]

    def test_span_closes_on_exception(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                clock.advance(2.0)
                raise ValueError("boom")
        assert tracer.spans[0].seconds == pytest.approx(2.0)
        with tracer.span("after"):
            pass
        assert tracer.spans[1].parent is None  # stack was unwound

    def test_counters_accumulate(self):
        tracer = Tracer(clock=FakeClock())
        tracer.counter("hits")
        tracer.counter("hits", 4)
        assert tracer.counters == {"hits": 5}

    def test_events_record_ts_and_attrs(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.advance(3.0)
        tracer.event("solver.round", round=1, values_added=7)
        (event,) = tracer.events
        assert event.name == "solver.round"
        assert event.ts == pytest.approx(3.0)
        assert event.attrs == {"round": 1, "values_added": 7}

    def test_phase_seconds_aggregates_by_name(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for _ in range(2):
            with tracer.span("app"):
                with tracer.span("solve"):
                    clock.advance(1.0)
        phases = tracer.phase_seconds()
        assert phases["app"] == pytest.approx(2.0)
        assert phases["solve"] == pytest.approx(2.0)

    def test_json_roundtrip(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("load"):
            clock.advance(0.5)
        tracer.counter("rule.fired.Inflate2", 2)
        tracer.event("solver.round", round=1)
        data = json.loads(to_json(tracer, indent=2))
        assert data == snapshot(tracer)
        assert data["schema"] == "repro.obs/1"
        assert data["phases"]["load"] == pytest.approx(0.5)
        assert data["counters"] == {"rule.fired.Inflate2": 2}
        assert data["spans"][0]["name"] == "load"
        assert data["events"][0]["attrs"] == {"round": 1}


class TestOffTracer:
    def test_off_records_nothing(self):
        assert isinstance(OFF, Tracer)
        with OFF.span("solve", app="x") as first:
            first.attrs["rounds"] = 3
            with OFF.span("build") as second:
                pass
        assert first is not second  # a throwaway record per span
        OFF.counter("rule.fired.Inflate2", 2)
        OFF.event("solver.round", round=1)
        analyze(_demo_app())
        assert OFF.is_empty()

    def test_explicit_tracer_observes_analysis(self):
        tracer = Tracer()
        analyze(_demo_app(), tracer=tracer)
        assert names.COUNTER_ROUNDS in tracer.counters
        assert {s.name for s in tracer.spans} == {"build", "solve"}
        assert OFF.is_empty()


# -- solver instrumentation --------------------------------------------------

_DEMO_SOURCE = """
package demo;
import android.app.Activity;
import android.view.View;
import android.widget.Button;

class Main extends Activity {
    void onCreate() {
        this.setContentView(R.layout.main);
        View b = this.findViewById(R.id.ok);
        Button ok = (Button) b;
        Handler h = new Handler();
        ok.setOnClickListener(h);
    }
}
class Handler implements View.OnClickListener {
    void onClick(View v) { }
}
"""

_DEMO_LAYOUT = '<LinearLayout><Button android:id="@+id/ok"/></LinearLayout>'


def _demo_app():
    return load_app_from_sources("demo", [_DEMO_SOURCE], {"main": _DEMO_LAYOUT})


class TestSolverCounters:
    def test_hand_computed_rule_firings(self):
        """Hand-traced firing counts on the three-operation demo app:

        round 1 — Inflate2 instantiates the layout family and the ROOT
        edge; FindView2 resolves the freshly rooted Button; SetListener
        already sees the Handler allocation at its argument and binds
        the listener to ``onClick``'s ``this`` (no receiver view yet —
        the FindView2 output only reaches it in the end-of-round
        drain, through the cast);
        round 2 — SetListener now has the Button at its receiver and
        adds the LISTENER edge and the view-parameter flow;
        round 3 — nothing changes, fixed point.

        The naive sweep runs all three rounds and evaluates every op
        in each.  The semi-naive scheduler (the default) proves the
        fixed point after round 2: the LISTENER edge has no
        subscribed readers and no port changed, so no op is dirty and
        no confirming round is needed.
        """
        tracer = Tracer()
        result = analyze(
            _demo_app(), AnalysisOptions(solver="naive"), tracer=tracer
        )
        assert result.converged
        assert result.rounds == 3
        c = tracer.counters
        assert c[names.RULE_FIRED[OpKind.INFLATE2]] == 1
        assert c[names.RULE_FIRED[OpKind.FINDVIEW2]] == 1
        assert c[names.RULE_FIRED[OpKind.SETLISTENER]] == 2
        # One op of each kind, evaluated once per round.
        for kind in (OpKind.INFLATE2, OpKind.FINDVIEW2, OpKind.SETLISTENER):
            assert c[names.RULE_EVALUATED[kind]] == result.rounds
        # No other rule kinds appear.
        fired = {k for k in c if k.startswith("rule.fired.")}
        assert fired == {
            "rule.fired.Inflate2",
            "rule.fired.FindView2",
            "rule.fired.SetListener",
        }

        # Semi-naive: identical firings, fewer scheduled evaluations.
        # Round 2 re-schedules only SetListener (the Button reached its
        # receiver port in round 1's drain). FindView2 read round 1's
        # inflation edges after Inflate2 had added them, and no edge of
        # a kind it read appears later; Inflate2 stays clean after the
        # round-0 sweep.
        semi_tracer = Tracer()
        semi = analyze(_demo_app(), tracer=semi_tracer)
        assert semi.converged
        assert semi.rounds == 2
        assert semi.ops_scheduled == 4
        assert semi.ops_skipped == 2
        sc = semi_tracer.counters
        assert sc[names.RULE_EVALUATED[OpKind.INFLATE2]] == 1
        assert sc[names.RULE_EVALUATED[OpKind.FINDVIEW2]] == 1
        assert sc[names.RULE_EVALUATED[OpKind.SETLISTENER]] == 2
        for kind in (OpKind.INFLATE2, OpKind.FINDVIEW2, OpKind.SETLISTENER):
            assert sc[names.RULE_FIRED[kind]] == c[names.RULE_FIRED[kind]]

    def test_notepad_counters_match_solution(self):
        tracer = Tracer()
        app = load_app_from_dir(NOTEPAD)
        result = analyze(app, tracer=tracer)
        c = tracer.counters

        # Evaluations: the round-0 sweep runs every op once; after
        # that the scheduler runs only dirty ops, never exceeding the
        # naive rounds x ops budget.  The per-kind counters sum to the
        # scheduler's own total.
        ops_by_kind = {}
        for op in result.graph.ops():
            ops_by_kind[op.kind] = ops_by_kind.get(op.kind, 0) + 1
        for kind, count in ops_by_kind.items():
            assert count <= c[names.RULE_EVALUATED[kind]] <= count * result.rounds
        assert (
            sum(c[names.RULE_EVALUATED[kind]] for kind in ops_by_kind)
            == result.ops_scheduled
        )
        assert result.ops_skipped > 0
        assert c[names.COUNTER_BUILD_OPS] == len(result.graph.ops())

        # pts sets only grow, so insertions == final solution size.
        assert c[names.COUNTER_VALUES_ADDED] == result.values_added
        assert result.values_added == sum(len(s) for s in result.pts.values())
        assert c[names.COUNTER_ROUNDS] == result.rounds
        assert names.COUNTER_MAX_ROUNDS_EXHAUSTED not in c  # converged

        # Per-round events are consistent with the aggregate counters.
        rounds = [e for e in tracer.events if e.name == names.EVENT_ROUND]
        assert [e.attrs["round"] for e in rounds] == list(
            range(1, result.rounds + 1)
        )
        assert (
            sum(e.attrs["rules_fired"] for e in rounds)
            == sum(v for k, v in c.items() if k.startswith("rule.fired."))
        )
        # The initial seed drain happens before round 1, so per-round
        # work items sum to strictly less than the solve total.
        per_round_work = sum(e.attrs["work_items"] for e in rounds)
        assert 0 < per_round_work < c[names.COUNTER_WORK_ITEMS]
        assert rounds[-1].attrs["rules_fired"] == 0  # the fixed-point round

    def test_disabled_mode_records_nothing(self):
        bystander = Tracer()  # exists but is never enabled or passed
        result = analyze(load_app_from_dir(NOTEPAD))
        assert bystander.is_empty()
        assert OFF.is_empty()
        # Effort stats are still maintained without a tracer.
        assert result.values_added > 0
        assert result.work_items > 0

    def test_profiling_changes_no_result(self):
        plain = analyze(load_app_from_dir(NOTEPAD))
        traced = analyze(load_app_from_dir(NOTEPAD), tracer=Tracer())
        assert sorted(map(str, plain.gui_tuples())) == sorted(
            map(str, traced.gui_tuples())
        )
        assert plain.rounds == traced.rounds
        assert plain.values_added == traced.values_added
        assert {str(n): sorted(map(str, vs)) for n, vs in plain.pts.items()} == {
            str(n): sorted(map(str, vs)) for n, vs in traced.pts.items()
        }


class TestConvergenceFlag:
    def test_converged_on_normal_run(self):
        result = analyze(_demo_app())
        assert result.converged is True

    def test_max_rounds_exhaustion_is_loud(self):
        tracer = Tracer()
        with pytest.warns(RuntimeWarning, match="without reaching a fixed point"):
            result = analyze(
                load_app_from_dir(NOTEPAD),
                AnalysisOptions(max_rounds=1),
                tracer=tracer,
            )
        assert result.converged is False
        assert result.rounds == 1
        assert tracer.counters[names.COUNTER_MAX_ROUNDS_EXHAUSTED] == 1

    def test_converged_serialised_in_json(self):
        from repro.core.export import result_to_json

        with pytest.warns(RuntimeWarning):
            result = analyze(
                load_app_from_dir(NOTEPAD), AnalysisOptions(max_rounds=1)
            )
        data = json.loads(result_to_json(result))
        assert data["converged"] is False
        assert data["solver"]["converged"] is False
        assert data["solver"]["rounds"] == 1


# -- CLI surface -------------------------------------------------------------


class TestCliProfile:
    def test_profile_prints_report(self, capsys):
        assert main(["analyze", NOTEPAD, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Profile: phase timings" in out
        assert "load" in out and "build" in out and "solve" in out
        assert "Profile: inference-rule firings" in out
        assert "Inflate2" in out
        assert "Profile: solver rounds" in out

    def test_profile_json_roundtrips(self, tmp_path, capsys):
        target = str(tmp_path / "telemetry.json")
        assert main(["analyze", NOTEPAD, "--profile-json", target]) == 0
        with open(target, encoding="utf-8") as f:
            data = json.loads(f.read())
        assert data["schema"] == "repro.obs/1"
        assert any(k.startswith("rule.fired.") for k in data["counters"])
        assert {s["name"] for s in data["spans"]} >= {"load", "build", "solve"}
        assert "telemetry written to" in capsys.readouterr().out

    def test_profile_does_not_change_cli_tuples(self, capsys):
        assert main(["analyze", NOTEPAD, "--tuples"]) == 0
        plain = capsys.readouterr().out
        assert main(["analyze", NOTEPAD, "--tuples", "--profile"]) == 0
        profiled = capsys.readouterr().out
        start = plain.index("GUI tuples:")
        section = plain[start : plain.index("\n\n", start) if "\n\n" in plain[start:] else len(plain)]
        assert section.strip() in profiled

    def test_json_stdout_stays_parseable_with_profile(self, tmp_path, capsys):
        target = str(tmp_path / "telemetry.json")
        assert main(
            ["analyze", NOTEPAD, "--json", "--profile-json", target]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["app"] == "notepad"
        assert os.path.exists(target)

    def test_max_rounds_flag_surfaces_nonconvergence(self, capsys):
        with pytest.warns(RuntimeWarning):
            assert main(["analyze", NOTEPAD, "--max-rounds", "1"]) == 0
        assert "NOT CONVERGED" in capsys.readouterr().out


# -- bench harness wiring ----------------------------------------------------


class TestBenchTelemetry:
    def test_render_telemetry_sections(self):
        from repro.bench.reporting import render_telemetry

        tracer = Tracer()
        analyze(_demo_app(), tracer=tracer)
        text = render_telemetry(tracer)
        assert "Profile: phase timings" in text
        assert "Profile: inference-rule firings" in text
        assert "Profile: solver rounds" in text

    def test_render_telemetry_empty(self):
        from repro.bench.reporting import render_telemetry

        assert "no telemetry" in render_telemetry(Tracer(clock=FakeClock()))

    def test_table2_profile_appends_report(self):
        from repro.bench import table2

        text = table2.main(["APV"], profile=True)
        assert "Table 2" in text
        assert "Profile: inference-rule firings" in text
        # App span carries the app name for multi-app runs.
        assert "APV" in text

    def test_bench_cli_profile_flag(self, capsys):
        from repro.bench.__main__ import main as bench_main

        assert bench_main(["table2", "--profile", "APV"]) == 0
        out = capsys.readouterr().out
        assert "Profile: phase timings" in out


# -- lint and batch profiling ------------------------------------------------

BUGGY = os.path.join(os.path.dirname(NOTEPAD), "buggy")


@pytest.fixture()
def cli_tracers(monkeypatch):
    """The tracers the CLI makes, in order."""
    import repro.__main__ as cli

    made = []
    make = cli._tracer

    def keep(profile):
        made.append(make(profile))
        return made[-1]

    monkeypatch.setattr(cli, "_tracer", keep)
    return made


def _one_span(tracer, name):
    spans = [s for s in tracer.spans if s.name == name]
    assert len(spans) == 1, [s.name for s in tracer.spans]
    return spans[0]


class TestLintProfile:
    def test_run_lint_records_span_and_counters(self):
        from repro.lint import LintOptions, run_lint

        result = analyze(load_app_from_dir(BUGGY), AnalysisOptions(provenance=True))
        uid = run_lint(result).findings[0].uid
        tracer = Tracer()
        report = run_lint(result, LintOptions(suppress_text=uid + "\n"), tracer=tracer)
        assert _one_span(tracer, names.PHASE_LINT).attrs == {"app": result.app.name}
        assert tracer.counters[names.COUNTER_LINT_FINDINGS] == len(report.findings) > 0
        assert tracer.counters[names.COUNTER_LINT_SUPPRESSED] == len(report.suppressed) == 1

    def test_cli_lint_profile(self, cli_tracers, capsys):
        assert main(["lint", NOTEPAD, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Profile: phase timings" in out
        assert names.COUNTER_LINT_FINDINGS in out
        (tracer,) = cli_tracers
        assert _one_span(tracer, names.PHASE_LINT).attrs == {"app": "notepad"}
        assert tracer.counters[names.COUNTER_LINT_FINDINGS] == 0
        assert tracer.counters[names.COUNTER_LINT_SUPPRESSED] == 0
        assert {"build", "solve"} <= {s.name for s in tracer.spans}


class TestBatchProfile:
    def test_cli_batch_profile(self, cli_tracers, capsys):
        assert main(["batch", "APV", "--profile"]) == 0
        out = capsys.readouterr().out
        assert names.COUNTER_BATCH_APPS in out
        (tracer,) = cli_tracers
        assert _one_span(tracer, names.SPAN_BATCH).attrs == {"jobs": 1}
        assert tracer.counters == {names.COUNTER_BATCH_APPS: 1}
        (event,) = tracer.events
        assert event.name == names.EVENT_BATCH_APP
        assert event.attrs["app"] == "APV"
        assert event.attrs["status"] == "ok"
        assert event.attrs["attempts"] == 1


class TestUnprofiledRuns:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", NOTEPAD, "--tuples", "--transitions", "--checks", "--taint"],
            ["lint", NOTEPAD],
            ["batch", "APV"],
        ],
        ids=["analyze", "lint", "batch"],
    )
    def test_off_stays_empty(self, argv, cli_tracers, capsys):
        assert main(argv) == 0
        assert "Profile:" not in capsys.readouterr().out
        assert cli_tracers == [OFF]
        assert OFF.is_empty()


class TestProvenanceFactsCounter:
    @pytest.mark.parametrize("name", ["notepad", "scale8"])
    def test_counter_matches_record_count(self, name):
        if name == "notepad":
            app = load_app_from_dir(NOTEPAD)
        else:
            from repro.bench.solverbench import scaled_spec
            from repro.corpus.generator import generate_app

            app = generate_app(scaled_spec(8))
        tracer = Tracer()
        result = analyze(app, AnalysisOptions(provenance=True), tracer=tracer)
        facts = tracer.counters[names.COUNTER_PROV_FACTS]
        assert facts == result.provenance.record_count() > 0
