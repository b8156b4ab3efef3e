"""CLI for the evaluation harness.

Usage::

    python -m repro.bench all
    python -m repro.bench table1 [--jobs N] [APP ...]
    python -m repro.bench table2 [--profile] [--json] [--jobs N] [APP ...]
    python -m repro.bench figure3
    python -m repro.bench figure4
    python -m repro.bench casestudy
    python -m repro.bench ablation [APP ...]
    python -m repro.bench lint [APP ...]
    python -m repro.bench perfsmoke

``--profile`` makes the Table 2 run collect ``repro.obs`` telemetry
(per-app/phase timings, per-rule firing counters) and append the
report after the table. ``--json`` additionally merge-writes per-app
solver stats (solve_seconds, rounds, ops scheduled/skipped) into
``BENCH_solver.json`` at the repo root.

``perfsmoke`` is the CI scheduler regression guard: quick subset,
fails (exit 1) if the semi-naive schedule ever evaluates more rule
instances than the naive schedule, or takes a different number of
rounds.

``lint`` benchmarks the lint pass per corpus app — wall time and the
provenance-overhead ratio (provenance-on vs plain solve) — and
merge-writes ``BENCH_lint.json`` at the repo root.

``--jobs N`` fans the per-app work of ``table1``/``table2``/``lint``
out over the fault-isolated batch runner (``repro.runner``, see
``docs/RUNNER.md``); per-app results are identical to the serial path.
``table2 --profile`` collects cross-app telemetry and therefore always
runs serially.
"""

from __future__ import annotations

import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    profile = "--profile" in args
    emit_json = "--json" in args
    args = [a for a in args if a not in ("--profile", "--json")]
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

    from repro.bench import ablation, casestudy, figures, table1, table2

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
        json_path = None
        if emit_json:
            from repro.bench.solverbench import DEFAULT_PATH

            json_path = DEFAULT_PATH
        outputs.append(
            table2.main(apps, profile=profile, json_path=json_path, jobs=jobs)
        )
    if target in ("figure3", "all"):
        outputs.append(figures.main_figure3())
    if target in ("figure4", "all"):
        outputs.append(figures.main_figure4())
    if target in ("casestudy", "all"):
        outputs.append(casestudy.run_case_study())
    if target in ("ablation", "all"):
        outputs.append(ablation.main(tuple(apps) if apps else ablation.DEFAULT_APPS))
    if not outputs:
        print(__doc__)
        return 2
    print("\n\n".join(outputs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
