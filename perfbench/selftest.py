"""Self-test of the benchmark on a tiny configuration.

Usage::

    python3 perfbench/selftest.py

Runs every workload for one pass on APV and NotePad (scale1 for
lint-scale), untraced and traced, and checks that:

* every metric named in BENCHMARK.json is emitted, with its unit and a
  measured value, and the run is correct against the goldens;
* a corrupted golden makes the run report failures (fail_ratio > 0);
* the traced pass's per-layer self times plus the reported unattributed
  remainder add up to its wall time, and the remainder is small.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run

TINY = {
    "analyze-corpus": {"apps": ("APV", "NotePad")},
    "batch-corpus": {"apps": ("APV", "NotePad")},
    "lint-scale": {"scales": (1,)},
}
# The golden outputs each workload's corruption tests break, one at a time.
CORRUPTED = {
    "analyze-corpus": (("APV", "transitions"), ("NotePad", "navigation")),
    "batch-corpus": (("NotePad", "fingerprint"),),
    "lint-scale": (("scale1", "lint"),),
}
# Share of the traced wall time that may fall outside every layer span.
MAX_UNATTRIBUTED = 0.05


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def spec_units(section: str):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def check_emitted(name: str, result, section: str) -> None:
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(units == spec_units(section), f"{name}: {section} names/units differ")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        expect(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{name}: {metric} is unmeasured ({value!r})",
        )
    expect(result["correct"] and result["failed"] == 0, f"{name}: not correct")
    expect(result["attempted"] >= 1, f"{name}: nothing attempted")


def main() -> int:
    goldens = run.load_goldens()
    for name, config in TINY.items():
        plain = run.measure(name, 0, 0, False, goldens, **config)
        check_emitted(name, plain, "end_to_end")

        traced = run.measure(name, 0, 0, True, goldens, **config)
        check_emitted(name, traced, "per_layer")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = m["trace.wall_s"]
        layers = sum(m[k] for k in run.SPAN_SECONDS)
        expect(
            abs(layers + m["trace.unattributed_s"] - wall) < 1e-6,
            f"{name}: layer times and remainder do not add up to the wall time",
        )
        expect(
            0 <= m["trace.unattributed_s"] <= MAX_UNATTRIBUTED * wall,
            f"{name}: {m['trace.unattributed_s']:.4f}s of {wall:.4f}s unattributed",
        )

        for app, key in CORRUPTED[name]:
            bad = copy.deepcopy(goldens)
            bad[name][app][key] = bad[name][app][key][1:]
            broken = run.measure(name, 0, 0, False, bad, **config)
            expect(broken["failed"] > 0 and not broken["correct"],
                   f"{name}: a corrupted {key} golden went unnoticed")
        broken = run.measure(name, 0, 0, True, bad, **config)
        expect(broken["metrics"]["fail_ratio"]["value"] > 0,
               f"{name}: a corrupted {key} golden left fail_ratio at 0")
        print(f"{name}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
