"""The benchmark's three workloads and the checks on their outputs.

Each workload prepares its inputs in :meth:`setup` and runs one pass
over its apps in :meth:`run_pass`. A pass calls the public entry point
of every layer itself, in the order the CLI does, so a traced pass can
put a span around each layer without changing anything under ``src/``.

Why these three (see README.md for the layer-to-metric map):

* ``analyze-corpus`` — the path of ``repro analyze DIR --tuples
  --transitions --checks --taint`` plus ``repro lint --no-witness`` over
  the 20 corpus apps loaded from disk. Only it runs the smali loader and
  the clients, which do most of its work.
* ``batch-corpus`` — ``repro batch --jobs <cpus>`` over the same 20
  apps. Only it runs the process fan-out of ``repro.runner`` and solution
  fingerprinting; it never loads from disk nor runs clients, so a fix to
  either must leave it unchanged.
* ``lint-scale`` — ``repro lint`` with witnesses on the synthetic
  scale8/16/32 apps, a larger working set than any corpus app, where
  provenance recording dominates the solve.

Every app's outputs are compared with goldens (solution fingerprint,
transition-graph digest, lint finding uids) outside the timed region.
The first check of each app also runs the concrete interpreter (static
must contain dynamic), in a forked child so that its memory is not
counted either. The corpus apps have no transition edge, so in
analyze-corpus that check also runs the transitions client on a
variant of each small app whose handlers start activities.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import os
import random
import resource
import shutil
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.solverbench import scaled_spec, solver_record
from repro.clients import (
    build_transition_graph,
    run_error_checks,
    run_taint_analysis,
)
from repro.core.analysis import AnalysisOptions, GuiReferenceAnalysis, analyze
from repro.core.metrics import compute_graph_stats, compute_precision
from repro.corpus.apps import APP_SPECS, spec_by_name
from repro.corpus.export import dump_app
from repro.corpus.generator import generate_app
from repro.frontend.loader import load_app_from_dir
from repro.ir.builder import MethodBuilder
from repro.lint import LintOptions, run_lint
from repro.runner import STATUS_OK, BatchOptions, fingerprint_hash, run_batch
from repro.semantics import check_soundness, run_app

from forked import in_children
from hostspeed import calibrate, calibrate_in_parallel
from tracing import OFF, Span, Tracer

# The seed whose inputs the goldens were recorded from.
DEFAULT_SEED = 0
# lint-scale offsets each scale spec's generator seed by seed * stride,
# so the default seed keeps the family of ``repro.bench`` unchanged.
SCALE_SEED_STRIDE = 1000
CORPUS = tuple(spec.name for spec in APP_SPECS)
SCALES = (8, 16, 32)
# Calibration samples per process before and after a parallel batch
# pass, taken in as many processes as the pass has workers.
BATCH_CALIBRATIONS = 5
# The corpus apps under 150 classes. The full check of analyze-corpus
# analyzes their navigating variants (see with_navigation), which have
# 47 handlers and 143 transition edges, in under a second in all.
NAVIGATION_APPS = (
    "APV", "NotePad", "OpenManager", "OpenSudoku", "SuperGenPass", "TippyTipper", "VuDroid"
)


@dataclass
class AppRun:
    name: str
    seconds: float
    problem: Optional[str] = None  # None when the app ran and checked ok


@dataclass
class PassResult:
    apps: List[AppRun]
    wall: float
    # busy_ratio / retries / failed of a pass through repro.runner.
    runner: Dict[str, float] = field(default_factory=dict)
    # hostspeed.calibrate() samples taken around the pass's apps.
    calibration: List[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for run in self.apps if run.problem is not None)


def available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def transitions_digest(graph) -> str:
    """SHA-256 over a transition graph: activities, GUI tuples and edges."""
    lines = [f"activity {name}" for name in graph.activities]
    lines += sorted(
        f"tuple {t.activity_class} {t.event.value} on {t.view} via {t.handler}"
        for t in graph.tuples
    )
    lines += sorted(
        f"edge {t.source} -> {t.target} ({t.trigger.event.value} on "
        f"{t.trigger.view} via {t.trigger.handler})"
        for t in graph.transitions
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def with_navigation(app):
    """``app`` with listener handlers that start activities, in place.

    The corpus generator's handlers are empty, so the transitions client
    finds no edge in any corpus app. Here the handler of listener class
    ``k`` calls ``m<q>`` on a new filler object, the top of that filler
    class's chain of calls down to ``m0``, and ``m0`` instantiates an
    activity. The client must walk the CHA call graph (which also
    dispatches to subclasses overriding ``m<q>``) to find each edge.
    """
    program = app.program
    activities = sorted(app.activity_classes())
    fillers = classes_named(program, "Filler")
    for k, listener in enumerate(classes_named(program, "Listener")):
        (handler,) = listener.methods.values()
        filler = fillers[k % len(fillers)]
        m0 = program.method(filler.name, "m0", 1)
        ret = m0.body.pop()
        MethodBuilder(m0).new(activities[k % len(activities)])
        m0.body.append(ret)
        ret = handler.body.pop()
        mb = MethodBuilder(handler)
        receiver = mb.new(filler.name)
        top = f"m{len(filler.methods) - 1}"
        mb.invoke(receiver, top, [mb.const_null()], lhs=mb.fresh())
        handler.body.append(ret)
    return app


def classes_named(program, stem: str) -> List:
    """The generator's classes ``<pkg>.<stem><k>``, ordered by ``k``."""
    found = []
    for clazz in program.application_classes():
        suffix = clazz.name.rsplit(".", 1)[-1]
        if suffix.startswith(stem) and suffix[len(stem):].isdigit():
            found.append((int(suffix[len(stem):]), clazz))
    return [clazz for _, clazz in sorted(found, key=lambda pair: pair[0])]


def soundness_violations(app, result) -> int:
    """Facts the concrete interpreter observed that the solution lacks."""
    return len(check_soundness(result, run_app(app).trace).violations)


def compare(name: str, got: Dict[str, object], golden: Optional[Dict]) -> Optional[str]:
    """The first problem with ``got``, or None when it is correct."""
    if got.get("violations"):
        return f"{name}: {got['violations']} soundness violations"
    if "twin" in got and got["twin"] != got["fingerprint"]:
        return f"{name}: fingerprint changes with provenance recording"
    if golden is None:
        return None
    for key, value in got.items():
        if key not in ("violations", "twin") and golden.get(key) != value:
            return f"{name}: {key} differs from the golden"
    return None


def count_build(tr, ga: GuiReferenceAnalysis) -> None:
    if tr.traced:
        tr.count("build.nodes", len(ga.graph.nodes))
        tr.count("build.flow_edges", ga.graph.flow_edge_count())
        tr.count("build.ops", len(ga.graph.ops()))


def count_solve(tr, result) -> None:
    if tr.traced:
        tr.count("solve.rounds", result.rounds)
        tr.count("solve.work_items", result.work_items)
        tr.count("solve.values_added", result.values_added)
        tr.count("solve.ops_scheduled", result.ops_scheduled)
        tr.count("solve.ops_skipped", result.ops_skipped)
        if result.provenance is not None:
            tr.count("provenance.facts", result.provenance.record_count())


class Workload:
    """Shared pass loop and output checks; subclasses add the pipeline."""

    name = ""

    def __init__(self, seed: int, goldens: Dict[str, Dict], workdir: str) -> None:
        self.seed = seed
        self.goldens: Dict[str, Dict] = goldens.get(self.name, {})
        self._checked: set = set()

    def setup(self) -> float:
        """Prepare the inputs; returns the seconds the preparation took."""
        raise NotImplementedError

    def items(self) -> Sequence[Tuple[str, object]]:
        raise NotImplementedError

    def pipeline(self, item, tr):
        raise NotImplementedError

    def outputs(self, out) -> Tuple[object, object, Dict[str, object]]:
        """(app, result, extra golden-checked outputs) of one pipeline run."""
        raise NotImplementedError

    def run_pass(self, tr=OFF) -> PassResult:
        return self.serial_pass(tr)

    def serial_pass(self, tr=OFF, names: Optional[Sequence[str]] = None) -> PassResult:
        """One app after another; ``names`` picks a share of the apps."""
        runs: List[AppRun] = []
        calibration: List[float] = []
        # Allocation tracing slows the calibration too; its passes need none.
        calibrated = not tracemalloc.is_tracing()
        for name, item in self.items():
            if names is not None and name not in names:
                continue
            if calibrated:
                calibration.append(calibrate())
            gc.collect()  # each app starts from a collected heap, as in its own process
            tr.app = name
            start = time.perf_counter()
            try:
                with tr.span("app"):
                    out = self.pipeline(item, tr)
            except Exception as exc:  # a failing app is data, not a crash
                traceback.print_exc()
                runs.append(
                    AppRun(name, time.perf_counter() - start, f"{name}: {exc!r}")
                )
                continue
            seconds = time.perf_counter() - start
            runs.append(AppRun(name, seconds, self.check(name, out)))
            del out
        if calibrated:
            calibration.append(calibrate())
        return PassResult(runs, sum(run.seconds for run in runs), calibration=calibration)

    def memory_pass(self) -> Tuple[Tracer, PassResult]:
        """A serial pass with tracemalloc on, its apps dealt over one child per CPU.

        Tracing every allocation slows a pass four to five times; side by
        side, the children take about half as long on two CPUs. Their
        spans carry each layer's peak. They also make each app's full
        output check, so later passes in this process check only the
        cheap outputs.
        """
        names = [name for name, _ in self.items()]
        jobs = available_cpus()

        def share(k: int) -> Dict[str, list]:
            tracer = Tracer(memory=True)
            tracemalloc.start()
            result = self.serial_pass(tracer, names[k::jobs])
            return {
                "spans": [[s.name, s.app, s.peak_bytes] for s in tracer.spans],
                "apps": [[r.name, r.seconds, r.problem] for r in result.apps],
            }

        start = time.perf_counter()
        shares = in_children([functools.partial(share, k) for k in range(jobs)])
        wall = time.perf_counter() - start
        memory = Tracer(memory=True)
        runs: List[AppRun] = []
        for part in shares:
            memory.spans += [
                Span(span, app, 0.0, peak_bytes=peak) for span, app, peak in part["spans"]
            ]
            runs += [AppRun(*run) for run in part["apps"]]
        self._checked.update(names)
        return memory, PassResult(runs, wall)

    def observe(self, name: str, out, full: bool = True) -> Dict[str, object]:
        """The checked outputs of one app run.

        A full check adds the solution fingerprint, the soundness oracle,
        the workload's :meth:`probe` and, for an app without goldens, the
        fingerprint of the same analysis with provenance recording
        toggled (``twin``). These are the costly checks, so a run makes
        them once per app.
        """
        app, result, extra = self.outputs(out)
        if not full:
            return extra
        golden = self.goldens.get(name)

        def compute() -> Dict[str, object]:
            got = {"fingerprint": fingerprint_hash(result), **extra}
            got["violations"] = soundness_violations(app, result)
            if golden is None:
                twin = dataclasses.replace(
                    result.options, provenance=not result.options.provenance
                )
                got["twin"] = fingerprint_hash(analyze(app, twin))
            got.update(self.probe(name))
            return got

        return in_children([compute])[0]

    def probe(self, name: str) -> Dict[str, object]:
        """Golden-checked outputs of a benchmark-made input besides ``name``."""
        return {}

    def check(self, name: str, out) -> Optional[str]:
        full = name not in self._checked
        self._checked.add(name)
        try:
            got = self.observe(name, out, full)
        except RuntimeError as exc:
            return f"{name}: output check failed: {exc}"
        return compare(name, got, self.goldens.get(name))

    def runner_pass(self) -> Optional[PassResult]:
        """An untraced pass through ``repro.runner``, if the workload has one."""
        return None

    def expects(self, metric: str, tracer) -> bool:
        """Whether a traced pass must call the hook feeding ``metric``."""
        return False

    def peak_rss_mib(self) -> float:
        # ru_maxrss is in KiB on Linux.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class AnalyzeCorpus(Workload):
    """``repro analyze --tuples --transitions --checks --taint`` + lint."""

    name = "analyze-corpus"

    def __init__(self, seed, goldens, workdir, apps: Sequence[str] = CORPUS) -> None:
        super().__init__(seed, goldens, workdir)
        self.names = list(apps)
        self.order = list(self.names)
        random.Random(seed).shuffle(self.order)
        self.appdir = os.path.join(workdir, "apps")

    def setup(self) -> float:
        shutil.rmtree(self.appdir, ignore_errors=True)

        def dump() -> float:
            start = time.perf_counter()
            for name in self.names:
                dump_app(generate_app(spec_by_name(name)), os.path.join(self.appdir, name))
            return time.perf_counter() - start

        # Timed in the child, so that the fork is not.
        return in_children([dump])[0]

    def items(self):
        return [(name, os.path.join(self.appdir, name)) for name in self.order]

    def pipeline(self, path, tr):
        with tr.span("load"):
            app = load_app_from_dir(path)
            with tr.span("ir.validate"):
                app.validate()
        if tr.traced:
            tr.count("load.statements", app.program.statement_count())
        with tr.span("build"):
            ga = GuiReferenceAnalysis(app)
        count_build(tr, ga)
        with tr.span("solve"):
            result = ga.solve()
        count_solve(tr, result)
        with tr.span("clients"):
            with tr.span("clients.tuples"):
                sorted(result.gui_tuples(), key=str)
            with tr.span("clients.transitions"):
                graph = build_transition_graph(result)
            with tr.span("clients.errorcheck"):
                run_error_checks(result)
            with tr.span("clients.taint"):
                run_taint_analysis(result)
        if tr.traced:
            tr.count(
                "clients.transitions.handlers", len({t.handler for t in graph.tuples})
            )
        with tr.span("lint"):
            report = run_lint(result, LintOptions(witness=False))
        if tr.traced:
            tr.count("lint.findings", len(report.findings))
        return app, result, graph, report

    def outputs(self, out):
        app, result, graph, report = out
        return app, result, {
            "transitions": transitions_digest(graph),
            "lint": sorted(f.uid for f in report.findings),
        }

    def probe(self, name):
        """The transition graph of the app's navigating variant.

        The corpus apps have no transition edge, so without it nothing
        would check that the transitions client still finds edges.
        """
        if name not in NAVIGATION_APPS:
            return {}
        app = with_navigation(generate_app(spec_by_name(name)))
        app.validate()
        graph = build_transition_graph(analyze(app))
        return {
            "navigation": transitions_digest(graph),
            "navigation_edges": graph.edge_count(),
        }

    def expects(self, metric, tracer):
        if metric == "dex.parse_s":
            return True
        if metric == "clients.transitions.callgraph_builds":
            return tracer.total("clients.transitions.handlers") > 0
        return False


class BatchCorpus(Workload):
    """``repro batch --jobs <cpus>``: the default job in worker processes."""

    name = "batch-corpus"

    def __init__(self, seed, goldens, workdir, apps: Sequence[str] = CORPUS) -> None:
        super().__init__(seed, goldens, workdir)
        self.names = list(apps)
        self.jobs = available_cpus()

    def setup(self) -> float:
        """Generate the apps once, as a measurement of generation alone.

        The workers generate their own apps inside the pass, so nothing
        made here is used. The child generates one app at a time and
        never grows as large as a worker, which also analyzes, so it
        does not set the RUSAGE_CHILDREN peak.
        """

        def generate() -> float:
            start = time.perf_counter()
            for name in self.names:
                generate_app(spec_by_name(name))
            return time.perf_counter() - start

        # In a child so that workers fork from a lean parent.
        return in_children([generate])[0]

    def run_pass(self, tr=OFF) -> PassResult:
        if tr.traced:  # nothing inside a worker can be timed from outside
            return self.serial_pass(tr)
        calibration = calibrate_in_parallel(self.jobs, BATCH_CALIBRATIONS)
        gc.collect()
        start = time.perf_counter()
        batch = run_batch(self.names, BatchOptions(jobs=self.jobs))
        wall = time.perf_counter() - start
        calibration += calibrate_in_parallel(self.jobs, BATCH_CALIBRATIONS)
        runs = []
        for outcome in batch.outcomes:
            problem = None
            golden = self.goldens.get(outcome.name, {})
            if outcome.status != STATUS_OK:
                problem = f"{outcome.name}: runner reported {outcome.status}"
            elif outcome.payload["fingerprint"] != golden.get("fingerprint"):
                problem = f"{outcome.name}: fingerprint differs from the golden"
            runs.append(AppRun(outcome.name, outcome.seconds, problem))
        runner = {
            "busy_ratio": sum(o.seconds for o in batch.outcomes) / (self.jobs * wall),
            "retries": batch.retries,
            "failed": sum(1 for o in batch.outcomes if o.status != STATUS_OK),
        }
        return PassResult(runs, wall, runner, calibration)

    def runner_pass(self) -> Optional[PassResult]:
        return self.run_pass()

    def items(self):
        return [(name, name) for name in self.names]

    def pipeline(self, name, tr):
        # The pieces of repro.runner.tasks.analyze_job, in its order.
        with tr.span("corpus.generate"):
            app = generate_app(spec_by_name(name))
        with tr.span("build"):
            ga = GuiReferenceAnalysis(app)
        count_build(tr, ga)
        with tr.span("solve"):
            result = ga.solve()
        count_solve(tr, result)
        with tr.span("diff.fingerprint"):
            fingerprint_hash(result)
        with tr.span("metrics"):
            compute_graph_stats(result)
            compute_precision(result)
            solver_record(result)
        return app, result

    def outputs(self, out):
        app, result = out
        return app, result, {}

    def peak_rss_mib(self) -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(super().peak_rss_mib(), children / 1024.0)


class LintScale(Workload):
    """``repro lint`` with witnesses on the synthetic scale family."""

    name = "lint-scale"

    def __init__(self, seed, goldens, workdir, scales: Sequence[int] = SCALES) -> None:
        super().__init__(seed, goldens, workdir)
        if seed != DEFAULT_SEED:
            self.goldens = {}  # other seeds make other apps
        self.scales = list(scales)
        self.apps: List[Tuple[str, object]] = []

    def setup(self) -> float:
        start = time.perf_counter()
        self.apps = []
        for scale in self.scales:
            spec = scaled_spec(scale)
            spec = dataclasses.replace(spec, seed=spec.seed + SCALE_SEED_STRIDE * self.seed)
            self.apps.append((spec.name, generate_app(spec)))
        return time.perf_counter() - start

    def items(self):
        return self.apps

    def pipeline(self, app, tr):
        with tr.span("build"):
            ga = GuiReferenceAnalysis(app, AnalysisOptions(provenance=True))
        count_build(tr, ga)
        with tr.span("solve"):
            result = ga.solve()
        count_solve(tr, result)
        with tr.span("lint"):
            report = run_lint(result)
        if tr.traced:
            tr.count("lint.findings", len(report.findings))
        return app, result, report

    def outputs(self, out):
        app, result, report = out
        return app, result, {"lint": sorted(f.uid for f in report.findings)}

    def expects(self, metric, tracer):
        return metric == "lint.witness_s" and tracer.total("lint.findings") > 0


WORKLOADS = {w.name: w for w in (AnalyzeCorpus, BatchCorpus, LintScale)}
