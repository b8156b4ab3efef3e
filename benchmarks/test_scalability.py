"""Scalability sweep: analysis cost vs application size.

Not a paper table, but quantifies the paper's "low cost" claim: the
analysis is expected to scale near-linearly in application size. The
sweep generates a family of synthetic apps that grow uniformly in
classes/methods/layouts/operations and measures the full analysis.
"""

import pytest

from repro import AnalysisOptions, analyze
from repro.bench.solverbench import scaled_spec as _scaled_spec
from repro.corpus.generator import generate_app

SCALES = [1, 2, 4, 8]

# The largest app of the synthetic family; the naive-vs-semi-naive
# effort is asserted here.
LARGEST_SCALE = 16


@pytest.mark.parametrize("scale", SCALES)
def test_analysis_scales(benchmark, scale):
    app = generate_app(_scaled_spec(scale))
    result = benchmark.pedantic(lambda: analyze(app), rounds=2, iterations=1)
    assert result.rounds < 30


def test_growth_is_subquadratic(benchmark):
    """Time(8x) / Time(1x) must stay well under the 64x a quadratic
    analysis would exhibit."""

    def sweep():
        times = {}
        for scale in (1, 8):
            app = generate_app(_scaled_spec(scale))
            # Median of three runs to damp noise.
            runs = sorted(analyze(app).solve_seconds for _ in range(3))
            times[scale] = runs[1]
        return times

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ratio = times[8] / max(times[1], 1e-4)
    assert ratio < 40, f"8x size cost {ratio:.1f}x time (expected near-linear)"


def test_seminaive_effort_on_largest_app(benchmark):
    """The delta-driven scheduler must evaluate fewer rule instances
    than the schedule-everything oracle on the largest synthetic app."""
    app = generate_app(_scaled_spec(LARGEST_SCALE))

    naive, semi = benchmark.pedantic(
        lambda: [
            analyze(app, AnalysisOptions(solver=mode))
            for mode in ("naive", "seminaive")
        ],
        rounds=1,
        iterations=1,
    )

    assert semi.ops_skipped > 0
    assert semi.ops_scheduled < naive.ops_scheduled


def test_seminaive_skips_on_every_scale(benchmark):
    """The scheduler skips evaluations on every sweep scale."""

    def sweep():
        return {
            scale: analyze(generate_app(_scaled_spec(scale))).ops_skipped
            for scale in SCALES
        }

    skipped = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for scale in SCALES:
        assert skipped[scale] > 0
