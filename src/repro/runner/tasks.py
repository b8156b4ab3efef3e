"""Batch-runner work units: target resolution and worker-side jobs.

A batch *target* is either the name of a corpus spec (``repro.corpus``
generates the app deterministically inside the worker, so nothing
heavyweight crosses the process boundary) or a project directory in
the trimmed Android layout understood by
:func:`repro.frontend.load_app_from_dir`.

A *job* is the module-level function a worker runs on the loaded app:
``job(app, options, *job_args) -> picklable payload``. Jobs must be
importable (module-level) so they pickle by reference under both the
``fork`` and ``spawn`` start methods. :func:`analyze_job` is the
default used by the ``batch`` CLI; the bench harness supplies its own
(Table 1 stats, Table 2 precision, lint records).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.app import AndroidApp
from repro.core.analysis import AnalysisOptions, analyze
from repro.core.diff import solution_fingerprint
from repro.core.metrics import compute_graph_stats, compute_precision
from repro.core.results import AnalysisResult
from repro.errors import ReproError

# Test hook: REPRO_BATCH_FAULT="<target>=<mode>[,<target>=<mode>...]"
# injects a failure into the worker for the named target before it
# loads the app. Modes: ``hang`` (sleep until killed by the per-app
# timeout), ``crash`` (hard process death, no Python traceback —
# exercises the worker-crash path), ``raise`` (ordinary exception), and
# ``fail-once:<path>`` (raise a transient error on the first attempt,
# succeed once the sentinel file exists — exercises the retry path).
FAULT_ENV = "REPRO_BATCH_FAULT"


@dataclass(frozen=True)
class BatchTarget:
    """One app to analyze: a corpus spec name or a project directory."""

    name: str
    kind: str  # "spec" | "dir"
    path: Optional[str] = None  # project directory for kind == "dir"


def resolve_targets(
    items: Optional[Sequence[Union[str, BatchTarget]]] = None,
) -> List[BatchTarget]:
    """Map CLI/bench target strings to :class:`BatchTarget` records.

    An empty/None list means the full 20-app evaluation corpus. Each
    string is first tried as a corpus spec name, then as a project
    directory; anything else is a :class:`ValueError`, as are duplicate
    target names (the report is keyed by name).
    """
    from repro.corpus.apps import APP_SPECS

    spec_names = {spec.name for spec in APP_SPECS}
    if not items:
        items = [spec.name for spec in APP_SPECS]
    targets: List[BatchTarget] = []
    for item in items:
        if isinstance(item, BatchTarget):
            targets.append(item)
        elif item in spec_names:
            targets.append(BatchTarget(name=item, kind="spec"))
        elif os.path.isdir(item):
            name = os.path.basename(os.path.abspath(item))
            targets.append(BatchTarget(name=name, kind="dir", path=item))
        else:
            raise ReproError(
                f"unknown batch target {item!r}: neither a corpus app name "
                "nor a project directory"
            )
    seen: Dict[str, BatchTarget] = {}
    for target in targets:
        if target.name in seen:
            raise ReproError(f"duplicate batch target name {target.name!r}")
        seen[target.name] = target
    return targets


def load_target(target: BatchTarget) -> AndroidApp:
    """Materialise the app for ``target`` (inside the worker)."""
    if target.kind == "spec":
        from repro.corpus.apps import spec_by_name
        from repro.corpus.generator import generate_app

        return generate_app(spec_by_name(target.name))
    if target.kind == "dir":
        from repro.frontend.loader import load_app_from_dir

        app = load_app_from_dir(target.path, name=target.name)
        app.validate()
        return app
    raise ValueError(f"unknown target kind {target.kind!r}")


def fingerprint_hash(result: AnalysisResult) -> str:
    """SHA-256 over the canonical JSON form of the solution fingerprint.

    Two analysis runs produce the same hash iff their solutions are
    observationally identical (see :mod:`repro.core.diff`), which is
    the byte-identical guarantee the parallel runner is tested against.
    """
    canonical = json.dumps(
        solution_fingerprint(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def analyze_job(
    app: AndroidApp, options: AnalysisOptions
) -> Dict[str, object]:
    """Default batch job: analyze and summarise one app.

    Returns a JSON-safe record: the solution fingerprint hash (the
    serial-vs-parallel equivalence anchor), solver effort stats, and
    the Table 1/2 headline numbers.
    """
    from repro.bench.solverbench import solver_record

    result = analyze(app, options)
    stats = compute_graph_stats(result)
    precision = compute_precision(result)
    return {
        "fingerprint": fingerprint_hash(result),
        "solver": solver_record(result),
        "stats": {
            "classes": stats.classes,
            "methods": stats.methods,
            "layout_ids": stats.layout_ids,
            "view_ids": stats.view_ids,
            "views_inflated": stats.views_inflated,
            "views_allocated": stats.views_allocated,
            "listeners": stats.listeners,
        },
        "precision": {
            "receivers": precision.receivers,
            "parameters": precision.parameters,
            "results": precision.results,
            "listeners": precision.listeners,
        },
    }


def maybe_inject_fault(name: str) -> None:
    """Apply the ``REPRO_BATCH_FAULT`` test hook for target ``name``."""
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    for entry in spec.split(","):
        target, _, mode = entry.partition("=")
        if target.strip() != name:
            continue
        mode = mode.strip()
        if mode == "hang":
            while True:  # killed by the runner's per-app timeout
                time.sleep(60)
        if mode == "crash":
            os._exit(86)  # hard death: no traceback crosses the pipe
        if mode == "raise":
            raise RuntimeError(f"injected failure for {name}")
        if mode.startswith("fail-once:"):
            sentinel = mode[len("fail-once:"):]
            if not os.path.exists(sentinel):
                with open(sentinel, "w", encoding="utf-8") as f:
                    f.write(name + "\n")
                raise RuntimeError(f"injected transient failure for {name}")
            return
        raise ValueError(f"unknown {FAULT_ENV} mode {mode!r}")
