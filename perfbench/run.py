"""Run one benchmark workload and print its metrics as JSON.

Usage::

    python3 perfbench/run.py --workload analyze-corpus --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run sets up the workload several times (the
median is ``setup_s``), then runs untraced passes until ``--seconds`` of
pass time is used, and reports the end-to-end metrics as medians over
the passes. Every end-to-end time is scaled to a reference host speed
measured next to it (see hostspeed.py). With ``--trace 1`` it runs a
memory pass (tracemalloc peak per layer, in one child per CPU), a
traced pass (layer spans and work counts) and an untraced reference
pass, prints one row per app with each layer's self time and peak, and
reports the per-layer metrics, whose times are not scaled.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (app runs whose pipeline raised, whose
runner status was not ok, or whose outputs failed a check) and
``metrics``. A per-layer metric whose hook is missing, or was never
called on a workload that must call it, is reported with value null:
unmeasured, never 0. A metric that reads 0 is a layer the workload does
not exercise.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import sys
from typing import Dict, Iterator, List, Optional

from hostspeed import at_reference_speed, calibrate
from tracing import Tracer, hooked

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
# setup_s is the median of this many set-ups in one run.
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_app_s": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer metric -> the span whose self time it sums over the apps.
SPAN_SECONDS = {
    "load.s": "load",
    "dex.parse_s": "dex.parse",
    "ir.validate_s": "ir.validate",
    "build.s": "build",
    "solve.s": "solve",
    "clients.tuples_s": "clients.tuples",
    "clients.transitions_s": "clients.transitions",
    "clients.errorcheck_s": "clients.errorcheck",
    "clients.taint_s": "clients.taint",
    "lint.s": "lint",
    "lint.witness_s": "lint.witness",
    "corpus.generate_s": "corpus.generate",
    "diff.fingerprint_s": "diff.fingerprint",
    "metrics.s": "metrics",
}
# Per-layer metric -> the span whose highest tracemalloc peak it reports.
SPAN_PEAKS = {
    "load.peak_kib": "load",
    "build.peak_kib": "build",
    "solve.peak_kib": "solve",
    "clients.peak_kib": "clients",
}
COUNTS = (
    "load.statements",
    "build.nodes",
    "build.flow_edges",
    "build.ops",
    "solve.rounds",
    "solve.work_items",
    "solve.values_added",
    "solve.ops_scheduled",
    "solve.ops_skipped",
    "provenance.facts",
    "clients.transitions.handlers",
    "lint.findings",
)
# Entry points wrapped where the layer under test looks them up:
# metric, module, attribute, span (None: the metric counts calls).
HOOKS = (
    ("dex.parse_s", "repro.corpus.export", "parse_dex_text", "dex.parse"),
    (
        "clients.transitions.callgraph_builds",
        "repro.clients.transitions",
        "build_call_graph",
        None,
    ),
    ("lint.witness_s", "repro.lint.engine", "reconstruct_witness", "lint.witness"),
)

PER_LAYER = {
    **{metric: "s" for metric in SPAN_SECONDS},
    **{metric: "KiB" for metric in SPAN_PEAKS},
    **{metric: "count" for metric in COUNTS},
    "clients.transitions.callgraph_builds": "count",
    "solve.values_per_work_item": "ratio",
    "runner.busy_ratio": "ratio",
    "runner.retries": "count",
    "runner.failed": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "host.calibration_s": "s",
    "fail_ratio": "ratio",
}


def require_sources() -> None:
    """Put the checkout's ``src`` on the path, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@contextlib.contextmanager
def work_dir() -> Iterator[str]:
    """A private directory inside the checkout, removed afterwards."""
    path = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass  # another run's directory is still there


def load_goldens() -> Dict[str, Dict]:
    with open(GOLDENS, encoding="utf-8") as f:
        return json.load(f)


def timed_passes(workload, seconds: float) -> List:
    """Untraced passes until the next one would overrun ``seconds``; at least one."""
    passes = [workload.run_pass()]
    while sum(p.wall for p in passes) + statistics.median(
        p.wall for p in passes
    ) <= seconds:
        passes.append(workload.run_pass())
    return passes


def end_to_end(workload, seconds: float):
    setups, calibration = [], []
    for _ in range(SETUP_REPEATS):
        calibration.append(calibrate())
        gc.collect()
        setups.append(workload.setup())
    calibration.append(calibrate())
    passes = timed_passes(workload, seconds)
    # One host speed for all passes: a run is short next to the drift,
    # and more samples make the median calibration steadier.
    pass_calibration = [c for p in passes for c in p.calibration]
    app_seconds: Dict[str, List[float]] = {}
    for p in passes:
        for run in p.apps:
            app_seconds.setdefault(run.name, []).append(run.seconds)
    metrics = {
        "setup_s": at_reference_speed(statistics.median(setups), calibration),
        "wall_s": at_reference_speed(
            statistics.median(p.wall for p in passes), pass_calibration
        ),
        # The app with the highest median time over the passes: the max
        # of each pass's noisy app times would be biased upwards.
        "slowest_app_s": at_reference_speed(
            max(statistics.median(s) for s in app_seconds.values()), pass_calibration
        ),
        "peak_rss_mib": workload.peak_rss_mib(),
    }
    return metrics, passes


def per_layer(workload):
    workload.setup()
    runner = workload.runner_pass()
    memory, memory_pass = workload.memory_pass()
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        hooks = {
            metric: stack.enter_context(hooked(tracer, module, attr, span))
            for metric, module, attr, span in HOOKS
        }
        traced = workload.run_pass(tracer)
    base = workload.serial_pass()

    m: Dict[str, Optional[float]] = {
        metric: tracer.self_seconds(span) for metric, span in SPAN_SECONDS.items()
    }
    m.update((metric, memory.peak_kib(span)) for metric, span in SPAN_PEAKS.items())
    m.update((name, int(tracer.total(name))) for name in COUNTS)
    m["clients.transitions.callgraph_builds"] = hooks[
        "clients.transitions.callgraph_builds"
    ].calls
    work = m["solve.work_items"]
    m["solve.values_per_work_item"] = m["solve.values_added"] / work if work else 0.0
    runner_metrics = runner.runner if runner is not None else {}
    m["runner.busy_ratio"] = runner_metrics.get("busy_ratio", 0.0)
    m["runner.retries"] = runner_metrics.get("retries", 0)
    m["runner.failed"] = runner_metrics.get("failed", 0)
    m["trace.wall_s"] = traced.wall
    m["trace.untraced_wall_s"] = base.wall
    m["trace.overhead_s"] = traced.wall - base.wall
    m["trace.unattributed_s"] = traced.wall - sum(m[k] for k in SPAN_SECONDS)
    m["host.calibration_s"] = statistics.median(traced.calibration)
    for metric, hook in hooks.items():
        if not hook.measured(workload.expects(metric, tracer)):
            m[metric] = None
    print_app_table(tracer, memory, traced)
    print(f"memory pass (tracemalloc on, in parallel children): {memory_pass.wall:.4f}s")
    passes = [memory_pass, traced, base]
    return m, passes if runner is None else [runner] + passes


def print_app_table(tracer, memory, traced) -> None:
    """One row per app: wall, then self seconds and peak KiB per layer."""
    for run in traced.apps:
        cells = []
        for span in SPAN_SECONDS.values():
            if any(s.name == span and s.app == run.name for s in tracer.spans):
                cells.append(f"{span}={tracer.self_seconds(span, run.name):.4f}s")
        for span in SPAN_PEAKS.values():
            if any(s.name == span and s.app == run.name for s in memory.spans):
                cells.append(f"{span}.peak={memory.peak_kib(span, run.name):.0f}KiB")
        print(f"{run.name:<16} wall={run.seconds:.4f}s " + " ".join(cells))


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    goldens: Optional[Dict[str, Dict]] = None,
    **config,
) -> Dict[str, object]:
    """Run one workload and return the result object the CLI prints.

    ``config`` overrides the workload's app list (``apps``/``scales``),
    for small self-test configurations.
    """
    require_sources()
    from workloads import WORKLOADS

    if goldens is None:
        goldens = load_goldens()
    with work_dir() as workdir:
        workload = WORKLOADS[workload_name](seed, goldens, workdir, **config)
        if trace:
            values, passes = per_layer(workload)
            units = PER_LAYER
        else:
            values, passes = end_to_end(workload, seconds)
            units = END_TO_END
    attempted = sum(len(p.apps) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for run in p.apps:
            if run.problem is not None:
                print(f"FAILED {run.problem}", file=sys.stderr)
    if trace:
        values["fail_ratio"] = failed / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("analyze-corpus", "batch-corpus", "lint-scale"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
