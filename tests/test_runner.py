"""Tests for the fault-isolated batch runner and loader determinism."""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import time

import pytest

from repro import analyze
from repro.core.analysis import AnalysisOptions
from repro.corpus.apps import APP_SPECS
from repro.corpus.generator import generate_app
from repro.frontend.loader import load_app_from_dir, load_app_from_sources
from repro.runner import (
    BatchOptions,
    BatchTarget,
    exit_code,
    fingerprint_hash,
    render_batch,
    resolve_targets,
    run_batch,
    to_report,
    write_report,
)
from repro.runner.tasks import FAULT_ENV, analyze_job, load_target

SMALL_CORPUS = ["APV", "SuperGenPass", "BarcodeScanner"]
EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples", "projects")


# -- loader determinism -------------------------------------------------------


def _write_project(root):
    """A project whose source order depends on directory traversal."""
    (root / "src" / "zebra").mkdir(parents=True)
    (root / "src" / "alpha").mkdir(parents=True)
    (root / "src" / "zebra" / "ZActivity.alite").write_text(
        "package demo;\n"
        "import android.app.Activity;\n"
        "class ZActivity extends Activity {\n"
        "    void onCreate() { this.setContentView(R.layout.main); }\n"
        "}\n"
    )
    (root / "src" / "alpha" / "AActivity.alite").write_text(
        "package demo;\n"
        "import android.app.Activity;\n"
        "class AActivity extends Activity {\n"
        "    void onCreate() { this.setContentView(R.layout.main); }\n"
        "}\n"
    )
    (root / "res" / "layout").mkdir(parents=True)
    (root / "res" / "layout" / "main.xml").write_text(
        '<LinearLayout android:id="@+id/root">'
        '<Button android:id="@+id/ok"/></LinearLayout>'
    )


def _adversarial_walk(top):
    """``os.walk`` with worst-case (reverse-sorted) filesystem order.

    Like the real implementation, recursion follows the yielded ``dirs``
    list, so in-place reordering by the caller steers the traversal.
    """
    entries = sorted(os.listdir(top), reverse=True)
    dirs = [e for e in entries if os.path.isdir(os.path.join(top, e))]
    files = [e for e in entries if not os.path.isdir(os.path.join(top, e))]
    yield top, dirs, files
    for d in dirs:
        yield from _adversarial_walk(os.path.join(top, d))


class TestLoaderDeterminism:
    def test_source_order_is_filesystem_independent(self, tmp_path, monkeypatch):
        _write_project(tmp_path)
        reference = load_app_from_dir(str(tmp_path), name="p")
        monkeypatch.setattr(os, "walk", _adversarial_walk)
        adversarial = load_app_from_dir(str(tmp_path), name="p")
        paths = [s.path for s in adversarial.sources]
        assert paths == sorted(paths)
        assert paths == [s.path for s in reference.sources]
        assert fingerprint_hash(analyze(adversarial)) == fingerprint_hash(
            analyze(reference)
        )

    def test_source_paths_length_mismatch_raises(self):
        source = "package p; class A {}"
        with pytest.raises(ValueError, match="lengths must match"):
            load_app_from_sources("p", [source, source], source_paths=["only.one"])

    def test_matching_source_paths_accepted(self):
        app = load_app_from_sources(
            "p", ["package p; class A {}"], source_paths=["src/A.alite"]
        )
        assert [s.path for s in app.sources] == ["src/A.alite"]


class TestMenuParseErrors:
    def test_malformed_xml_wrapped(self):
        from repro.resources.menu import parse_menu_xml
        from repro.resources.xml_parser import LayoutXmlError

        with pytest.raises(LayoutXmlError, match="XML parse error"):
            parse_menu_xml("m", "<menu><item></menu>")

    def test_programming_errors_not_masked(self, monkeypatch):
        import repro.resources.menu as menu_mod

        def boom(text):
            raise KeyError("not a parse error")

        monkeypatch.setattr(menu_mod, "parse_android_xml", boom)
        with pytest.raises(KeyError):
            menu_mod.parse_menu_xml("m", "<menu/>")


# -- target resolution --------------------------------------------------------


class TestResolveTargets:
    def test_default_is_full_corpus(self):
        targets = resolve_targets(None)
        assert [t.name for t in targets] == [s.name for s in APP_SPECS]
        assert all(t.kind == "spec" for t in targets)

    def test_directory_target(self, tmp_path):
        _write_project(tmp_path)
        (target,) = resolve_targets([str(tmp_path)])
        assert target.kind == "dir"
        assert target.name == tmp_path.name

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown batch target"):
            resolve_targets(["NoSuchApp"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            resolve_targets(["APV", "APV"])


# -- the runner ---------------------------------------------------------------


def _collector_state_job(app, options):
    return gc.isenabled()


class TestRunBatch:
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_worker_runs_with_the_collector_off(self, tmp_path, enabled):
        """A worker's job runs with the cycle collector off; the parent's
        collector is left as it was."""
        _write_project(tmp_path)
        if not enabled:
            gc.disable()
        try:
            result = run_batch([str(tmp_path)], BatchOptions(jobs=1), job=_collector_state_job)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert result.payloads() == {tmp_path.name: False}

    def test_parallel_matches_in_process_fingerprints(self):
        result = run_batch(SMALL_CORPUS, BatchOptions(jobs=2))
        assert result.ok()
        for spec in APP_SPECS:
            if spec.name not in SMALL_CORPUS:
                continue
            expected = fingerprint_hash(analyze(generate_app(spec)))
            payload = result.outcome(spec.name).payload
            assert payload["fingerprint"] == expected

    def test_project_directory_target(self, tmp_path):
        _write_project(tmp_path)
        result = run_batch([str(tmp_path)], BatchOptions(jobs=1))
        assert result.ok()
        outcome = result.outcomes[0]
        assert outcome.payload["stats"]["classes"] == 2

    def test_worker_crash_is_quarantined(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "SuperGenPass=crash")
        result = run_batch(
            SMALL_CORPUS,
            BatchOptions(jobs=2, retries=0, continue_on_error=True),
        )
        bad = result.outcome("SuperGenPass")
        assert bad.status == "failed"
        assert bad.error["type"] == "WorkerCrash"
        assert bad.error["exitcode"] == 86
        assert result.outcome("APV").status == "ok"
        assert result.outcome("BarcodeScanner").status == "ok"
        assert not result.ok()

    def test_worker_exception_payload(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "APV=raise")
        result = run_batch(
            ["APV"], BatchOptions(jobs=1, retries=0, continue_on_error=True)
        )
        outcome = result.outcome("APV")
        assert outcome.status == "failed"
        assert outcome.error["type"] == "RuntimeError"
        assert "injected failure" in outcome.error["message"]
        assert "Traceback" in outcome.error["traceback"]

    def test_hang_hits_timeout_without_retry(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "APV=hang")
        result = run_batch(
            ["APV", "SuperGenPass"],
            BatchOptions(jobs=2, timeout=1.5, retries=1, continue_on_error=True),
        )
        hung = result.outcome("APV")
        assert hung.status == "timeout"
        assert hung.attempts == 1  # timeouts are not retried
        assert hung.seconds >= 1.5
        assert result.outcome("SuperGenPass").status == "ok"

    def test_transient_failure_retried_once(self, tmp_path, monkeypatch):
        sentinel = tmp_path / "flaky"
        monkeypatch.setenv(FAULT_ENV, f"APV=fail-once:{sentinel}")
        result = run_batch(
            ["APV"], BatchOptions(jobs=1, retries=1, backoff=0.05)
        )
        outcome = result.outcome("APV")
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.retried
        assert result.retries == 1

    def test_fail_fast_skips_remaining(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "APV=raise")
        result = run_batch(
            SMALL_CORPUS,
            BatchOptions(jobs=1, retries=0, continue_on_error=False),
        )
        assert result.outcome("APV").status == "failed"
        statuses = {o.name: o.status for o in result.outcomes}
        assert statuses["SuperGenPass"] == "skipped"
        assert statuses["BarcodeScanner"] == "skipped"

    def test_tracer_counters_and_events(self, monkeypatch):
        from repro.obs import names as obs_names
        from repro.obs.tracer import Tracer

        monkeypatch.setenv(FAULT_ENV, "SuperGenPass=crash")
        tracer = Tracer()
        run_batch(
            ["APV", "SuperGenPass"],
            BatchOptions(jobs=2, retries=1, backoff=0.05, continue_on_error=True),
            tracer=tracer,
        )
        assert tracer.counters[obs_names.COUNTER_BATCH_APPS] == 2
        assert tracer.counters[obs_names.COUNTER_BATCH_FAILED] == 1
        assert tracer.counters[obs_names.COUNTER_BATCH_RETRIES] == 1
        assert any(s.name == obs_names.SPAN_BATCH for s in tracer.spans)
        app_events = [
            e for e in tracer.events if e.name == obs_names.EVENT_BATCH_APP
        ]
        assert {e.attrs["app"] for e in app_events} == {"APV", "SuperGenPass"}

    def test_require_ok_raises_with_quarantine_summary(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "APV=raise")
        result = run_batch(
            ["APV"], BatchOptions(jobs=1, retries=0, continue_on_error=True)
        )
        with pytest.raises(RuntimeError, match="APV \\(failed"):
            result.require_ok()

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            BatchOptions(jobs=0)
        with pytest.raises(ValueError):
            BatchOptions(retries=-1)
        with pytest.raises(ValueError):
            BatchOptions(timeout=0)


# -- worker lifecycle ---------------------------------------------------------


def _pid_job(app, options, faults=None, marks=None):
    """Return the worker's pid. The first attempt on an app named in
    ``faults`` writes its pid to ``marks/<app>`` and then fails as named:
    ``raise`` (transient exception), ``crash`` or ``hang``."""
    mode = (faults or {}).get(app.name)
    mark = os.path.join(marks, app.name) if mode else None
    if mark and not os.path.exists(mark):
        with open(mark, "w", encoding="utf-8") as f:
            f.write(str(os.getpid()))
        if mode == "raise":
            raise RuntimeError(f"injected transient failure for {app.name}")
        if mode == "crash":
            os._exit(86)
        time.sleep(60)  # hang until the per-app timeout kills the worker
    return os.getpid()


class TestWorkerLifecycle:
    def test_clean_batch_uses_at_most_jobs_workers(self):
        names = SMALL_CORPUS + ["TippyTipper", "NotePad"]
        result = run_batch(names, BatchOptions(jobs=2), job=_pid_job)
        assert result.ok()
        pids = set(result.payloads().values())
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mode", ["raise", "crash"])
    def test_retry_and_next_app_get_a_fresh_worker(self, tmp_path, mode):
        result = run_batch(
            ["APV", "SuperGenPass"],
            BatchOptions(jobs=1, retries=1, backoff=0.05),
            job=_pid_job,
            job_args=({"APV": mode}, str(tmp_path)),
        )
        assert multiprocessing.active_children() == []
        assert result.ok()
        assert result.outcome("APV").attempts == 2
        failed_in = int((tmp_path / "APV").read_text())
        assert result.outcome("APV").payload != failed_in
        assert result.outcome("SuperGenPass").payload != failed_in

    def test_timeout_kills_the_worker(self, tmp_path):
        result = run_batch(
            ["APV", "SuperGenPass"],
            BatchOptions(jobs=1, timeout=1.5, continue_on_error=True),
            job=_pid_job,
            job_args=({"APV": "hang"}, str(tmp_path)),
        )
        assert multiprocessing.active_children() == []
        assert result.outcome("APV").status == "timeout"
        hung_in = int((tmp_path / "APV").read_text())
        assert result.outcome("SuperGenPass").status == "ok"
        assert result.outcome("SuperGenPass").payload != hung_in

    def test_fail_fast_leaves_no_worker(self, tmp_path):
        result = run_batch(
            SMALL_CORPUS,
            BatchOptions(jobs=1, retries=0),
            job=_pid_job,
            job_args=({"SuperGenPass": "raise"}, str(tmp_path)),
        )
        assert multiprocessing.active_children() == []
        assert result.outcome("SuperGenPass").status == "failed"
        assert result.outcome("BarcodeScanner").status == "skipped"

    def test_parent_exception_leaves_no_worker(self):
        from repro.obs.tracer import Tracer

        class FailingTracer(Tracer):
            def event(self, *args, **kwargs):
                raise RuntimeError("tracer failed")

        with pytest.raises(RuntimeError, match="tracer failed"):
            run_batch(
                SMALL_CORPUS, BatchOptions(jobs=2), job=_pid_job, tracer=FailingTracer()
            )
        assert multiprocessing.active_children() == []


class TestWorkerHistory:
    def test_results_do_not_depend_on_earlier_apps(self):
        """A reused worker gives every app the record a fresh in-process
        analysis gives it, whatever the worker analyzed before."""
        targets = resolve_targets(
            SMALL_CORPUS
            + [os.path.join(EXAMPLES, "notepad"), os.path.join(EXAMPLES, "buggy")]
        )
        expected = {}
        for target in targets:
            app = load_target(target)
            expected[target.name] = analyze_job(app, AnalysisOptions())
            assert expected[target.name]["fingerprint"] == fingerprint_hash(analyze(app))

        def comparable(record):
            solver = dict(record["solver"], solve_seconds=None)
            return dict(record, solver=solver)

        for order in (targets, targets[::-1]):
            result = run_batch(order, BatchOptions(jobs=1))
            assert result.ok()
            for name, payload in result.payloads().items():
                assert comparable(payload) == comparable(expected[name]), name


# -- the repro.batch/1 report -------------------------------------------------


class TestBatchReport:
    def test_report_schema_and_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "SuperGenPass=crash")
        result = run_batch(
            SMALL_CORPUS,
            BatchOptions(jobs=2, retries=0, continue_on_error=True),
        )
        report = to_report(result)
        assert report["schema"] == "repro.batch/1"
        assert report["summary"] == {
            "apps": 3, "ok": 2, "failed": 1, "timeout": 0,
            "skipped": 0, "retried": 0,
        }
        apv = report["apps"]["APV"]
        assert apv["status"] == "ok"
        assert apv["error"] is None
        assert set(apv["result"]) == {
            "fingerprint", "solver", "stats", "precision",
        }
        bad = report["apps"]["SuperGenPass"]
        assert bad["status"] == "failed"
        assert bad["result"] is None
        assert bad["error"]["type"] == "WorkerCrash"
        out = tmp_path / "batch.json"
        write_report(report, str(out))
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(report)
        )
        assert exit_code(result) == 1

    def test_render_mentions_every_app(self):
        result = run_batch(["APV"], BatchOptions(jobs=1))
        text = render_batch(result)
        assert "APV" in text and "ok=1" in text
        assert exit_code(result) == 0

    def test_non_json_payloads_render_null(self):
        result = run_batch(["APV"], BatchOptions(jobs=1))
        result.outcomes[0].payload = object()  # bench-style opaque payload
        report = to_report(result)
        assert report["apps"]["APV"]["result"] is None


# -- acceptance: corpus-wide equivalence and graceful degradation -------------


class TestCorpusAcceptance:
    def test_parallel_corpus_fingerprints_match_serial(self):
        """`--jobs 4` over all 20 apps == serial in-process analysis."""
        batch = run_batch(options=BatchOptions(jobs=4, timeout=300.0))
        batch.require_ok()
        payloads = batch.payloads()
        assert len(payloads) == len(APP_SPECS) == 20
        for spec in APP_SPECS:
            serial = fingerprint_hash(analyze(generate_app(spec)))
            assert payloads[spec.name]["fingerprint"] == serial, spec.name

    def test_one_crash_yields_partial_corpus_report(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "FBReader=crash")
        result = run_batch(
            options=BatchOptions(jobs=4, retries=0, continue_on_error=True)
        )
        report = to_report(result)
        assert report["summary"]["apps"] == 20
        assert report["summary"]["failed"] == 1
        assert report["summary"]["ok"] == 19
        assert report["apps"]["FBReader"]["status"] == "failed"

    def test_broken_project_quarantined(self):
        broken = os.path.join(
            os.path.dirname(__file__), "..", "examples", "projects", "broken"
        )
        result = run_batch(
            ["APV", broken],
            BatchOptions(jobs=2, retries=0, continue_on_error=True),
        )
        assert result.outcome("APV").status == "ok"
        bad = result.outcome("broken")
        assert bad.status == "failed"
        assert bad.error["type"] == "ParseError"
        assert bad.error["message"].startswith("src/BrokenActivity.alite:12:1: ")

    def test_input_error_not_retried(self):
        """Malformed input is deterministic: one attempt, no backoff."""
        broken = os.path.join(
            os.path.dirname(__file__), "..", "examples", "projects", "broken"
        )
        result = run_batch([broken], BatchOptions(jobs=1, retries=1))
        bad = result.outcome("broken")
        assert bad.status == "failed"
        assert bad.error["type"] == "ParseError"
        assert bad.attempts == 1
        assert result.retries == 0


# -- bench harness wiring -----------------------------------------------------


class TestBenchJobs:
    """The bench tables run on the batch runner; the worker count
    changes no row."""

    def test_table1_parallel_matches_serial(self):
        from repro.bench.table1 import run_table1

        serial = run_table1(SMALL_CORPUS)
        parallel = run_table1(SMALL_CORPUS, jobs=2)
        assert [r.stats for r in parallel] == [r.stats for r in serial]
        assert all(r.matches_spec() for r in parallel)

    def test_table2_parallel_matches_serial(self):
        from repro.bench.table2 import run_table2

        def shape(rows):  # every column but Time(s)
            return [row.as_row()[:1] + row.as_row()[2:] for row in rows]

        serial = run_table2(SMALL_CORPUS)
        parallel = run_table2(SMALL_CORPUS, jobs=2)
        assert [r.spec.name for r in serial] == [
            "APV", "BarcodeScanner", "SuperGenPass"  # spec-list order
        ]
        assert shape(parallel) == shape(serial)

    def test_lintbench_parallel(self, tmp_path, monkeypatch):
        from repro.bench import lintbench

        root = os.path.join(os.path.dirname(__file__), "..")
        before = sorted(os.listdir(root))
        monkeypatch.chdir(tmp_path)
        text = lintbench.main(["APV"], repeats=1, jobs=2)
        assert text.splitlines()[-1].split()[0] == "APV"
        assert os.listdir(tmp_path) == []
        assert sorted(os.listdir(root)) == before


# -- CLI ----------------------------------------------------------------------


class TestBatchCli:
    def test_batch_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "report.json"
        code = main(
            ["batch", "APV", "SuperGenPass", "--jobs", "2",
             "--output", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "repro.batch/1"
        assert data["summary"]["ok"] == 2
        assert "ok=2" in capsys.readouterr().out

    def test_batch_unknown_target_exit_2(self, capsys):
        from repro.__main__ import main

        assert main(["batch", "NoSuchApp"]) == 2
        assert "unknown batch target" in capsys.readouterr().err

    def test_batch_failure_exit_1(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv(FAULT_ENV, "APV=raise")
        code = main(
            ["batch", "APV", "--retries", "0", "--continue-on-error"]
        )
        assert code == 1
        assert "failed" in capsys.readouterr().out
