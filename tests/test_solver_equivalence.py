"""Differential equivalence of the naive and semi-naive solvers.

The safety net for the delta-driven scheduler: both modes must produce
*observationally identical* solutions — same ``flowsTo`` sets, same
relationship edges, same XML-handler bindings, same precision metrics —
on every corpus app and every on-disk example project.

The naive mode runs every op in every round and stops only after a round
that changed nothing, without consulting the dependency index, so a
subscription the scheduler missed shows up as a fingerprint mismatch
wherever it loses a fact.
"""

import os

import pytest

from repro.core.analysis import AnalysisOptions, GuiReferenceAnalysis, analyze
from repro.core.diff import diff_solutions, solution_fingerprint
from repro.corpus.apps import APP_SPECS
from repro.corpus.generator import generate_app
from repro.frontend import load_app_from_dir

from conftest import make_single_activity_app

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "projects")
EXAMPLE_PROJECTS = sorted(
    name
    for name in os.listdir(EXAMPLES_DIR)
    if os.path.isdir(os.path.join(EXAMPLES_DIR, name))
    # examples/projects/broken deliberately fails to load (it exercises
    # the batch runner's quarantine path) — not an analyzable project.
    and name != "broken"
)

_APP_CACHE = {}


def _corpus_app(name):
    app = _APP_CACHE.get(("corpus", name))
    if app is None:
        spec = next(s for s in APP_SPECS if s.name == name)
        app = generate_app(spec)
        _APP_CACHE[("corpus", name)] = app
    return app


def _example_app(name):
    app = _APP_CACHE.get(("example", name))
    if app is None:
        app = load_app_from_dir(os.path.join(EXAMPLES_DIR, name))
        _APP_CACHE[("example", name)] = app
    return app


def _assert_modes_agree(app):
    naive = analyze(app, AnalysisOptions(solver="naive"))
    semi = analyze(app, AnalysisOptions(solver="seminaive"))
    # Fingerprints key entries by node label, which hides the earlier of
    # two colliding entries: the comparison is exact only when labels
    # are unique.
    for result in (naive, semi):
        labels = [str(node) for node in result.graph.node_list]
        assert len(set(labels)) == len(labels), "node labels collide"
    problems = diff_solutions(
        solution_fingerprint(naive), solution_fingerprint(semi)
    )
    assert not problems, "solver modes disagree:\n" + "\n".join(problems)
    assert naive.converged and semi.converged
    assert semi.ops_skipped > 0, "scheduler never skipped an evaluation"
    assert semi.ops_scheduled <= naive.ops_scheduled


@pytest.mark.parametrize("name", [s.name for s in APP_SPECS])
def test_corpus_app_equivalence(name):
    _assert_modes_agree(_corpus_app(name))


@pytest.mark.parametrize("name", EXAMPLE_PROJECTS)
def test_example_project_equivalence(name):
    _assert_modes_agree(_example_app(name))


def test_unknown_solver_rejected():
    with pytest.raises(ValueError, match="unknown solver"):
        AnalysisOptions(solver="magic")


def test_naive_mode_counts_full_sweeps():
    app = _example_app(EXAMPLE_PROJECTS[0])
    result = analyze(app, AnalysisOptions(solver="naive"))
    assert result.solver == "naive"
    assert result.ops_skipped == 0
    assert result.ops_scheduled == result.rounds * len(result.graph.ops())


def test_rel_listener_uninstalled_after_solve():
    app = _example_app(EXAMPLE_PROJECTS[0])
    analysis = GuiReferenceAnalysis(app, AnalysisOptions(solver="seminaive"))
    result = analysis.solve()
    assert result.solver == "seminaive"
    assert result.ops_skipped > 0
    # The graph's edge-change hook must be uninstalled after solving so
    # later client-side add_rel calls don't touch dead scheduler state.
    assert analysis.graph.rel_listener is None


def test_child_edge_reschedules_the_find_that_read_it():
    """``findViewById(button_a)`` on the activity first runs before
    ``addView`` attaches the allocated view carrying that id. No port of
    the find changes afterwards and no later HAS_ID or ROOT edge
    appears: only the CHILD subscription it took by reading the root's
    descendants re-schedules it."""
    view = "android.view.View"

    def body(m):
        m.new("android.widget.TextView", lhs=m.local("v", view), line=2)
        bid = m.view_id("button_a", line=3)
        m.invoke("v", "setId", [bid], line=3)
        m.invoke(m.this, "findViewById", [bid], lhs=m.local("t", view), line=4)
        rid = m.view_id("root", line=5)
        m.invoke(m.this, "findViewById", [rid], lhs=m.local("r", view), line=5)
        m.cast("android.widget.LinearLayout", "r",
               lhs=m.local("c", "android.widget.LinearLayout"), line=6)
        m.invoke("c", "addView", ["v"], line=6)

    app = make_single_activity_app(build_on_create=body)
    naive = analyze(app, AnalysisOptions(solver="naive"))
    semi = analyze(app, AnalysisOptions(solver="seminaive"))
    assert not diff_solutions(solution_fingerprint(naive), solution_fingerprint(semi))
    found = semi.values_at_var("app.MainActivity", "onCreate", 0, "t")
    allocated = semi.values_at_var("app.MainActivity", "onCreate", 0, "v")
    assert allocated and allocated <= found
