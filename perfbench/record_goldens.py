"""Record ``perfbench/goldens.json`` from the current sources.

Usage::

    python3 perfbench/record_goldens.py

Runs each workload's in-process pipeline once at the default seed and
stores, per app, the solution fingerprint and the workload's other
checked outputs (transition-graph digests, lint finding uids). Recording
refuses an app that fails the soundness oracle, whose fingerprint
changes when provenance recording is toggled, or whose navigating
variant has no transition edge. The lint-scale goldens also cover
scale1, which the self-test runs.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.require_sources()
    from tracing import OFF
    from workloads import DEFAULT_SEED, SCALES, AnalyzeCorpus, BatchCorpus, LintScale

    goldens = {}
    with run.work_dir() as workdir:
        for workload in (
            AnalyzeCorpus(DEFAULT_SEED, {}, workdir),
            BatchCorpus(DEFAULT_SEED, {}, workdir),
            LintScale(DEFAULT_SEED, {}, workdir, scales=(1,) + SCALES),
        ):
            workload.setup()
            recorded = {}
            for name, item in workload.items():
                got = workload.observe(name, workload.pipeline(item, OFF))
                if got.pop("violations") or got.pop("twin") != got["fingerprint"]:
                    raise SystemExit(f"{workload.name}/{name}: outputs fail their checks")
                if got.get("navigation_edges") == 0:
                    raise SystemExit(f"{workload.name}/{name}: navigating variant has no edge")
                recorded[name] = got
                print(f"{workload.name}/{name}: {got['fingerprint'][:16]}", flush=True)
            goldens[workload.name] = recorded
    with open(run.GOLDENS, "w", encoding="utf-8") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
