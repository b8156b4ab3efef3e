"""CLI for the evaluation harness.

Usage::

    python -m repro.bench all
    python -m repro.bench table1 [--jobs N] [APP ...]
    python -m repro.bench table2 [--profile] [--jobs N] [APP ...]
    python -m repro.bench figure3
    python -m repro.bench figure4
    python -m repro.bench casestudy
    python -m repro.bench ablation [APP ...]
    python -m repro.bench lint [--jobs N] [APP ...]
    python -m repro.bench perfsmoke

``--profile`` makes the Table 2 run collect ``repro.obs`` telemetry
(per-app/phase timings, per-rule firing counters) and append the
report after the table.

``perfsmoke`` is the CI scheduler regression guard: quick subset,
fails (exit 1) if the semi-naive schedule ever evaluates more rule
instances than the naive schedule, or takes a different number of
rounds.

``lint`` benchmarks the lint pass per corpus app — wall time, witness
rebuilding included, and the overhead ratio of the solver's fact order
table (solve with vs without it).

The per-app work of ``table1``/``table2``/``lint`` runs on the
fault-isolated batch runner (``repro.runner``, see ``docs/RUNNER.md``)
with ``--jobs N`` workers (default 1); per-app results do not depend
on N. ``table2 --profile`` collects cross-app telemetry and therefore
analyzes in this process.

The harness writes no file. An unknown target, option or app name is
reported as one ``error:`` line on stderr with exit code 2.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.errors import ReproError

TARGETS = (
    "all", "table1", "table2", "figure3", "figure4", "casestudy", "ablation",
    "lint", "perfsmoke",
)


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    profile = "--profile" in args
    args = [a for a in args if a != "--profile"]
    jobs = 1
    if "--jobs" in args:
        at = args.index("--jobs")
        try:
            jobs = int(args[at + 1])
        except (IndexError, ValueError):
            print("error: --jobs requires an integer", file=sys.stderr)
            return 2
        del args[at:at + 2]
    target = args[0] if args else "all"
    apps = args[1:] or None
    if target not in TARGETS:
        print(f"error: unknown target {target!r}", file=sys.stderr)
        return 2

    from repro.bench import ablation, casestudy, figures, table1, table2
    from repro.corpus.apps import APP_SPECS

    known = {spec.name for spec in APP_SPECS}
    if target == "ablation":
        known.update(ablation.DEFAULT_APPS)
    for arg in args:
        if arg.startswith("-"):
            print(f"error: unknown option {arg!r}", file=sys.stderr)
            return 2
    for app in apps or ():
        if app not in known:
            print(
                f"error: unknown app {app!r}: not a corpus app name",
                file=sys.stderr,
            )
            return 2

    try:
        if target == "perfsmoke":
            from repro.bench.solverbench import main_perfsmoke

            print(main_perfsmoke())
            return 0

        if target == "lint":
            from repro.bench import lintbench

            print(lintbench.main(apps, jobs=jobs))
            return 0

        outputs: List[str] = []
        if target in ("table1", "all"):
            outputs.append(table1.main(apps, jobs=jobs))
        if target in ("table2", "all"):
            outputs.append(table2.main(apps, profile=profile, jobs=jobs))
        if target in ("figure3", "all"):
            outputs.append(figures.main_figure3())
        if target in ("figure4", "all"):
            outputs.append(figures.main_figure4())
        if target in ("casestudy", "all"):
            outputs.append(casestudy.run_case_study())
        if target in ("ablation", "all"):
            outputs.append(ablation.main(tuple(apps) if apps else ablation.DEFAULT_APPS))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n\n".join(outputs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
