"""Command-line interface: analyze Android projects from the shell.

Commands: ``analyze``, ``lint``, ``batch``, ``run`` and ``disasm``;
``python -m repro COMMAND --help`` lists each one's options. Bad input
of any kind exits 2 with one ``error:`` line (see README).

A project directory follows the trimmed Android layout (``src/*.alite``,
``res/layout/*.xml``, ``res/menu/*.xml``, ``AndroidManifest.xml``) —
see ``examples/projects/notepad``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import ReproError


def _load(path: str):
    from repro.frontend import load_app_from_dir

    app = load_app_from_dir(path)
    app.validate()
    return app


def _read_option_file(option: str, path: str) -> str:
    from repro.frontend.loader import read_text

    text = read_text("", path)
    if text is None:
        raise ReproError(f"no such {option} file", path=path)
    return text


def _tracer(profile: bool):
    """A fresh tracer when profiling, else None."""
    from repro.obs import Tracer

    return Tracer() if profile else None


def _cmd_analyze(args: argparse.Namespace) -> int:
    tracer = _tracer(args.profile or args.profile_json)
    exit_code = _run_analyze(args, tracer)
    if tracer is not None:
        from repro.bench.reporting import render_telemetry
        from repro.obs import to_json

        if not args.json:  # keep `--json` stdout machine-parseable
            print()
            print(render_telemetry(tracer))
        if args.profile_json:
            with open(args.profile_json, "w", encoding="utf-8") as f:
                f.write(to_json(tracer, indent=2))
            if not args.json:
                print(f"\ntelemetry written to {args.profile_json}")
    return exit_code


def _run_analyze(args: argparse.Namespace, tracer) -> int:
    import contextlib

    from repro import analyze
    from repro.core.analysis import AnalysisOptions
    from repro.core.export import graph_to_dot, result_to_json
    from repro.core.metrics import compute_graph_stats, compute_precision

    def phase(name: str):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(name)

    with phase("load"):
        app = _load(args.project)
    options = AnalysisOptions(solver=args.solver)
    if args.max_rounds is not None:
        options.max_rounds = args.max_rounds
    result = analyze(app, options, tracer=tracer)

    if args.json:
        print(result_to_json(result, indent=2))
        return 0
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(graph_to_dot(result.graph, include_vars=False))
        print(f"constraint graph written to {args.dot}")

    stats = compute_graph_stats(result)
    metrics = compute_precision(result)
    print(f"app: {app.name}")
    print(f"  classes={stats.classes} methods={stats.methods} "
          f"layouts={stats.layout_ids} view-ids={stats.view_ids}")
    print(f"  views inflated/allocated: {stats.views_inflated}/"
          f"{stats.views_allocated}, listeners: {stats.listeners}")
    converged_note = "" if result.converged else (
        f" (NOT CONVERGED: max_rounds={result.options.max_rounds} reached, "
        "solution may be incomplete)"
    )
    print(f"  solve: {result.solve_seconds:.3f}s in {result.rounds} rounds"
          f"{converged_note}")
    print(f"  precision: receivers={metrics.receivers} results={metrics.results}")
    for activity in sorted(app.activity_classes()):
        print()
        print(result.hierarchy_dump(activity))
        items = result.menu_items_of(activity)
        if items:
            print("  options menu: " + ", ".join(str(i) for i in items))

    with phase("clients"):
        if args.tuples:
            print("\nGUI tuples:")
            for t in sorted(result.gui_tuples(), key=str):
                print(f"  ({t.activity_class}, {t.view}, {t.event.value}, {t.handler})")
        if args.transitions:
            from repro.clients import build_transition_graph

            print("\nTransitions:")
            graph = build_transition_graph(result)
            for tr in graph.transitions:
                print(f"  {tr.source} -> {tr.target} "
                      f"({tr.trigger.event.value} on {tr.trigger.view})")
        if args.checks:
            from repro.clients import run_error_checks

            report = run_error_checks(result)
            print(f"\nChecks: {len(report)} finding(s)")
            for finding in report.findings:
                print(f"  {finding}")
            if report.findings:
                return 1
        if args.taint:
            from repro.clients import run_taint_analysis

            findings = run_taint_analysis(result)
            print(f"\nTaint: {len(findings)} finding(s)")
            for finding in findings:
                print(f"  {finding}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_lib

    from repro import analyze
    from repro.core.analysis import AnalysisOptions
    from repro.lint import (
        LintOptions,
        diff_baseline,
        render_text,
        run_lint,
        to_json,
        to_sarif,
        validate_sarif,
    )
    from repro.lint.rules import Severity, rule_by_id

    # Option files are read first: a bad one fails before the analysis.
    suppress_text = _read_option_file("--suppress", args.suppress) if args.suppress else None
    baseline = None
    if args.baseline:
        try:
            baseline = json_lib.loads(_read_option_file("--baseline", args.baseline))
        except json_lib.JSONDecodeError as exc:
            raise ReproError(
                f"--baseline is not JSON: {exc.msg}", exc.lineno, exc.colno,
                path=args.baseline,
            ) from None

    tracer = _tracer(args.profile)

    app = _load(args.project)
    # Witness paths need derivation provenance from the solver.
    options = AnalysisOptions(solver=args.solver, provenance=not args.no_witness)
    result = analyze(app, options, tracer=tracer)

    lint_options = LintOptions(witness=not args.no_witness, suppress_text=suppress_text)
    if args.rules:
        lint_options.rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    if args.disable:
        lint_options.disabled = [
            r.strip() for r in args.disable.split(",") if r.strip()
        ]
    if args.severity:
        lint_options.min_severity = Severity(args.severity)
    report = run_lint(result, lint_options, tracer=tracer)

    if args.explain:
        finding = report.finding(args.explain)
        if finding is None:
            raise ReproError(f"no finding with uid {args.explain!r}")
        rule = rule_by_id(finding.rule_id)
        print(finding)
        if rule is not None:
            print(f"  rule: {rule.id} ({rule.name}), severity {rule.severity}")
            print(f"  rationale: {rule.rationale}")
        if finding.witness:
            print("  witness (premises first, conclusion last):")
            for line in finding.witness:
                print("  " + line)
        else:
            print("  (no witness path: run without --no-witness)")
        return 0

    if args.format == "json":
        output = json_lib.dumps(to_json(report), indent=2, sort_keys=True)
    elif args.format == "sarif":
        sarif = to_sarif(report)
        problems = validate_sarif(sarif)
        if problems:  # pragma: no cover - exporter/validator must agree
            for problem in problems:
                print(f"sarif: {problem}", file=sys.stderr)
            return 2
        output = json_lib.dumps(sarif, indent=2, sort_keys=True)
    else:
        output = render_text(report, witness=not args.no_witness)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(output + "\n")
        print(f"lint report written to {args.output}")
    else:
        print(output)

    if tracer is not None:
        from repro.bench.reporting import render_telemetry

        print()
        print(render_telemetry(tracer))

    if baseline is not None:
        new, fixed = diff_baseline(report, baseline)
        print(
            f"baseline: {len(new)} new finding(s), {len(fixed)} fixed",
            file=sys.stderr,
        )
        for finding in new:
            print(f"  new: {finding}", file=sys.stderr)
        for uid in fixed:
            print(f"  fixed: {uid}", file=sys.stderr)
        return 1 if new else 0
    return 1 if report.findings else 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.core.analysis import AnalysisOptions
    from repro.runner import (
        BatchOptions,
        exit_code,
        render_batch,
        run_batch,
        to_report,
        write_report,
    )

    tracer = _tracer(args.profile)
    options = BatchOptions(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        continue_on_error=args.continue_on_error,
        analysis=AnalysisOptions(solver=args.solver),
    )
    result = run_batch(args.targets or None, options, tracer=tracer)
    print(render_batch(result))
    if args.output:
        write_report(to_report(result), args.output)
        print(f"batch report written to {args.output}")
    if tracer is not None:
        from repro.bench.reporting import render_telemetry

        print()
        print(render_telemetry(tracer))
    return exit_code(result)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import analyze
    from repro.semantics import check_soundness, run_app

    app = _load(args.project)
    run = run_app(app, seed=args.seed)
    print(f"activities driven: {len(run.activities)}")
    print(f"objects allocated: {len(run.heap.objects)}")
    print(f"operations executed: {len(run.trace.events)}")
    for activity_class, view, event in run.fired_events:
        print(f"  {event} on {view} @ {activity_class}")
    if run.budget_exhausted:
        print("warning: step budget exhausted (incomplete run)")
    result = analyze(app)
    report = check_soundness(result, run.trace)
    print(f"soundness: {report.checked} facts checked, "
          f"{len(report.violations)} violations")
    for violation in report.violations:
        print(f"  VIOLATION: {violation}")
    return 1 if report.violations else 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.dex import assemble_program

    app = _load(args.project)
    text = assemble_program(app.program)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"Dalvik text written to {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GUI reference analysis for Android projects "
        "(Rountev & Yan, CGO 2014 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the static analysis")
    p_analyze.add_argument("project", help="project directory")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the full solution as JSON")
    p_analyze.add_argument("--dot", metavar="FILE",
                           help="write the constraint graph as Graphviz DOT")
    p_analyze.add_argument("--checks", action="store_true",
                           help="run the static error checkers (exit 1 on findings)")
    p_analyze.add_argument("--taint", action="store_true",
                           help="run the taint client")
    p_analyze.add_argument("--transitions", action="store_true",
                           help="print the activity transition graph")
    p_analyze.add_argument("--tuples", action="store_true",
                           help="print the (activity, view, event, handler) tuples")
    p_analyze.add_argument("--profile", action="store_true",
                           help="collect and print solver telemetry "
                           "(phase timings, per-rule firing counters)")
    p_analyze.add_argument("--profile-json", metavar="FILE",
                           help="write telemetry as JSON (repro.obs/1 schema, "
                           "see docs/OBSERVABILITY.md); implies --profile")
    p_analyze.add_argument("--max-rounds", type=int, metavar="N",
                           help="override the solver's max_rounds safety valve")
    p_analyze.add_argument("--solver", choices=("naive", "seminaive"),
                           default="seminaive",
                           help="round schedule: delta-driven (default) or "
                           "every op every round (the test oracle); both "
                           "produce identical solutions")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_lint = sub.add_parser(
        "lint",
        help="run the GUI lint rules (witness-backed findings, SARIF export)",
    )
    p_lint.add_argument("project", help="project directory")
    p_lint.add_argument("--rules", metavar="IDS",
                        help="comma-separated rule ids/names to run "
                        "(default: all; see docs/LINT.md)")
    p_lint.add_argument("--disable", metavar="IDS",
                        help="comma-separated rule ids/names to skip")
    p_lint.add_argument("--severity", choices=("error", "warning"),
                        help="report only findings at least this severe")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format: human text (default), "
                        "repro.lint/1 JSON, or SARIF 2.1.0")
    p_lint.add_argument("--output", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    p_lint.add_argument("--explain", metavar="UID",
                        help="print the witness path of one finding "
                        "(uid as shown in text output) and exit")
    p_lint.add_argument("--baseline", metavar="FILE",
                        help="diff findings against a committed repro.lint/1 "
                        "document; exit 1 only on NEW findings")
    p_lint.add_argument("--suppress", metavar="FILE",
                        help="suppression file (finding uids or "
                        "'<rule> <Class>:<line>' entries)")
    p_lint.add_argument("--no-witness", action="store_true",
                        help="skip the fact order table and witness paths "
                        "(faster, plain findings)")
    p_lint.add_argument("--solver", choices=("naive", "seminaive"),
                        default="seminaive",
                        help="fixed-point strategy (findings are identical)")
    p_lint.add_argument("--profile", action="store_true",
                        help="print solver + lint telemetry")
    p_lint.set_defaults(func=_cmd_lint)

    p_batch = sub.add_parser(
        "batch",
        help="analyze many apps in fault-isolated parallel workers "
        "(repro.batch/1 report, see docs/RUNNER.md)",
    )
    p_batch.add_argument(
        "targets", nargs="*",
        help="corpus app names and/or project directories "
        "(default: the full 20-app evaluation corpus)")
    p_batch.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="concurrent worker processes (default 1; "
                         "a worker takes the next app after a success, "
                         "and a failed app's worker is replaced)")
    p_batch.add_argument("--timeout", type=float, metavar="SECONDS",
                         help="per-app wall-clock budget; a worker over "
                         "budget is killed and recorded as 'timeout'")
    p_batch.add_argument("--retries", type=int, default=1, metavar="N",
                         help="relaunches after a worker exception/crash "
                         "(default 1; timeouts and malformed input are "
                         "never retried)")
    p_batch.add_argument("--continue-on-error", action="store_true",
                         help="keep scheduling apps after a failure instead "
                         "of skipping the rest (partial results either way)")
    p_batch.add_argument("--output", metavar="FILE",
                         help="write the repro.batch/1 JSON report to FILE")
    p_batch.add_argument("--solver", choices=("naive", "seminaive"),
                         default="seminaive",
                         help="fixed-point strategy used by the workers")
    p_batch.add_argument("--profile", action="store_true",
                         help="print batch telemetry (batch.* counters, "
                         "per-app events)")
    p_batch.set_defaults(func=_cmd_batch)

    p_run = sub.add_parser("run", help="execute the app in the interpreter")
    p_run.add_argument("project", help="project directory")
    p_run.add_argument("--seed", type=int, default=0,
                       help="interpreter seed (FindView3 choices)")
    p_run.set_defaults(func=_cmd_run)

    p_disasm = sub.add_parser("disasm", help="emit Dalvik text for the project")
    p_disasm.add_argument("project", help="project directory")
    p_disasm.add_argument("-o", "--output", help="output file (default stdout)")
    p_disasm.set_defaults(func=_cmd_disasm)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Malformed input: a located message and the bad-input exit code.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # The reader of stdout went away (``... | head``). Point stdout
        # at devnull, so that the flush at shutdown cannot raise again.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # stdout has no file descriptor
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
