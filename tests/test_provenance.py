"""Tests for the solver's fact order table and the witness reconstructor.

Covers: solver integration in both scheduler modes (every fact gets an
order number, solution identity with the table on/off), the witness
reconstructor (ordering, axioms, memoization, cycle guard, truncation),
and the contract of every rebuilt derivation: on the fixtures that
between them exercise every operation rule plus ``android:onClick``,
each fact of the solution has a witness that ends in it, whose premises
hold, come earlier, and rank below their conclusion.
"""

import json
import os

import pytest

from repro import analyze
from repro.core.analysis import AnalysisOptions
from repro.core.diff import solution_fingerprint
from repro.core.provenance import EDGE, FLOW, REL, edge_fact, flow_fact, rel_fact
from repro.corpus.connectbot import build_connectbot_example
from repro.frontend import load_app_from_dir, load_app_from_sources
from repro.lint.witness import (
    Explainer,
    WitnessStep,
    reconstruct_witness,
    render_fact,
    render_step,
    render_witness,
)
from repro.platform.api import OpKind

import test_adapters
import test_core_analysis
import test_fragments
import test_menus
from conftest import make_single_activity_app

EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "projects"
)


def _fingerprint(result) -> str:
    return json.dumps(solution_fingerprint(result), sort_keys=True)


def _facts(result):
    """Every fact of a solution: flows, relationship edges, and the flow
    edges the solver made."""
    for node, values in result.pts.items():
        for value in values:
            yield flow_fact(node, value)
    for (kind, src, dst) in result.provenance.rel:
        yield rel_fact(kind, src, dst)
    for (src, dst) in result.provenance.edge:
        yield edge_fact(src, dst)


def _holds(result, fact) -> bool:
    if fact[0] == FLOW:
        return fact[2] in result.pts.get(fact[1], ())
    if fact[0] == REL:
        return result.graph.has_rel(fact[1], fact[2], fact[3])
    return result.graph.has_flow(fact[1], fact[2])


def _get_parent_app():
    def body(m):
        view = "android.view.View"
        m.invoke(m.this, "findViewById", [m.view_id("button_a", line=2)],
                 lhs=m.local("b", view), line=2)
        m.invoke("b", "getParent", [], lhs=m.local("p", view), line=3)

    return make_single_activity_app(build_on_create=body)


ADD_VIEW1_SOURCE = """
package app;

import android.app.Activity;
import android.widget.LinearLayout;

class Main extends Activity {
    void onCreate() {
        LinearLayout panel = new LinearLayout();
        this.setContentView(panel);
    }
}
"""

# A flow cycle b -> a -> b whose later predecessor ``a`` has the smaller
# content key: only the rank check keeps the witness of flowsTo(View, b)
# from resting on itself.
CYCLE_SOURCE = """
package app;

import android.app.Activity;
import android.view.View;

class Main extends Activity {
    void onCreate() {
        View b = new View();
        View a = b;
        b = a;
    }
}
"""

FIXTURES = {
    "connectbot": build_connectbot_example,
    "buggy": lambda: load_app_from_dir(os.path.join(EXAMPLES, "buggy")),
    "notepad": lambda: load_app_from_dir(os.path.join(EXAMPLES, "notepad")),
    "fragments": lambda: load_app_from_sources(
        "frag", [test_fragments.SOURCE], test_fragments.LAYOUTS
    ),
    "adapters": lambda: load_app_from_sources(
        "adapt", [test_adapters.SOURCE], test_adapters.LAYOUTS
    ),
    "menus": lambda: load_app_from_sources(
        "m", [test_menus.SOURCE], {"main": "<LinearLayout/>"},
        menus={"actions": test_menus.MENU},
    ),
    "inflate1": lambda: test_core_analysis.TestInflate1AndAddView()._app(),
    "listener": lambda: test_core_analysis.TestSetIdAndSetListener()._listener_app(),
    "cast": lambda: test_core_analysis.TestCastFiltering()._app(),
    "findview3": lambda: test_core_analysis.TestFindView3()._flipper_app(),
    "getparent": _get_parent_app,
    "addview1": lambda: load_app_from_sources("av1", [ADD_VIEW1_SOURCE]),
    "cycle": lambda: load_app_from_sources("cycle", [CYCLE_SOURCE]),
}


class TestSolverIntegration:
    def test_off_by_default(self):
        result = analyze(build_connectbot_example())
        assert result.provenance is None

    @pytest.mark.parametrize("solver", ["naive", "seminaive"])
    def test_every_flow_fact_has_a_derivation(self, solver):
        result = analyze(
            build_connectbot_example(),
            AnalysisOptions(solver=solver, provenance=True),
        )
        order = result.provenance
        assert order is not None and order.record_count() > 0
        explainer = Explainer(result)
        missing = [
            (node, v)
            for node, values in result.pts.items()
            for v in values
            if order.of(flow_fact(node, v)) is None
            or explainer.derivation(flow_fact(node, v)) is None
        ]
        assert missing == []

    def test_solution_identical_with_and_without_provenance(self):
        app = load_app_from_dir(os.path.join(EXAMPLES, "notepad"))
        fingerprints = {
            _fingerprint(analyze(app, AnalysisOptions(solver=s, provenance=p)))
            for s in ("naive", "seminaive")
            for p in (False, True)
        }
        assert len(fingerprints) == 1

    def test_rel_and_edge_derivations_recorded(self):
        result = analyze(
            build_connectbot_example(), AnalysisOptions(provenance=True)
        )
        order = result.provenance
        assert order.rel, "no relationship edges numbered"
        explainer = Explainer(result)
        rules_seen = {
            explainer.derivation(rel_fact(*key))[0] for key in order.rel
        }
        # Inflation populates HAS_ID/CHILD edges; listener registration
        # populates LISTENER edges.
        assert any("Inflate" in r for r in rules_seen)
        assert "SetListener" in rules_seen
        assert order.edge, "no solver-made flow edges numbered"

    def test_premises_reference_recorded_or_axiom_facts(self):
        """Premise facts form a DAG over numbered facts and axioms."""
        result = analyze(
            build_connectbot_example(), AnalysisOptions(provenance=True)
        )
        explainer = Explainer(result)
        for fact in list(_facts(result))[:200]:
            _rule, premises = explainer.derivation(fact)
            for premise in premises:
                assert premise[0] in (FLOW, REL, EDGE)
                assert explainer.rank(premise) < explainer.rank(fact)


class TestWitnessesAreTrue:
    """Every fact's witness is true, well-founded and ends in the fact."""

    @pytest.mark.parametrize("solver", ["naive", "seminaive"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_every_fact(self, name, solver):
        result = analyze(
            FIXTURES[name](), AnalysisOptions(solver=solver, provenance=True)
        )
        explainer = Explainer(result)
        for fact in _facts(result):
            steps = explainer.witness(fact, max_steps=10**6)
            assert steps[-1].fact == fact
            seen = set()
            for step in steps:
                if step.is_axiom:
                    # Only flow edges from program statements are axioms.
                    assert step.fact[0] == EDGE, render_step(step)
                    assert explainer.rank(step.fact) == -1
                for premise in step.premises:
                    assert _holds(result, premise), render_fact(premise)
                    assert premise in seen, "premise after its use"
                    assert explainer.rank(premise) < explainer.rank(step.fact)
                seen.add(step.fact)

    def test_fixtures_cover_every_rule(self):
        rules_used = set()
        for make_app in FIXTURES.values():
            result = analyze(make_app(), AnalysisOptions(provenance=True))
            explainer = Explainer(result)
            for fact in _facts(result):
                rules_used.add(explainer.derivation(fact)[0])
        expected = {kind.value for kind in OpKind} | {"Seed", "Assign", "XmlOnClick"}
        assert expected <= rules_used


class TestWitnessReconstruction:
    @pytest.fixture(scope="class")
    def result(self):
        app = load_app_from_dir(os.path.join(EXAMPLES, "buggy"))
        return analyze(app, AnalysisOptions(provenance=True))

    @staticmethod
    def _longest(result):
        """The buggy example's longest witness (the GUI004 cast)."""
        explainer = Explainer(result)
        facts = [
            flow_fact(node, v)
            for node, values in result.pts.items()
            for v in values
        ]
        return max(
            (explainer.witness(f) for f in facts),
            key=lambda steps: (len(steps), render_fact(steps[-1].fact)),
        )

    def test_conclusion_last_premises_first(self, result):
        steps = self._longest(result)
        fact = steps[-1].fact
        assert steps == reconstruct_witness(result, fact)
        emitted = set()
        for step in steps:
            for premise in step.premises:
                assert premise in emitted, "premise after its use"
            emitted.add(step.fact)

    def test_each_fact_appears_once(self, result):
        steps = self._longest(result)
        facts = [s.fact for s in steps]
        assert len(facts) == len(set(facts))

    def test_axioms_marked(self, result):
        steps = self._longest(result)
        axioms = [s for s in steps if s.is_axiom]
        assert axioms and all(s.fact[0] == EDGE for s in axioms)
        assert not steps[-1].is_axiom

    def test_cycle_guard_terminates(self, result):
        # Ranks make cycles impossible; a faulty explainer deriving a
        # fact from itself must still not hang the renderer.
        explainer = Explainer(result)
        explainer.derivation = lambda fact: ("Loop", (fact,))
        fact = flow_fact("n", "v")
        steps = explainer.witness(fact)
        assert [s.fact for s in steps] == [fact]

    def test_max_steps_truncates_but_keeps_conclusion(self, result):
        full = self._longest(result)
        assert len(full) > 10
        target = full[-1].fact
        steps = reconstruct_witness(result, target, max_steps=10)
        assert len(steps) <= 10
        assert steps[-1].fact == target
        assert steps[:-1] == full[: len(steps) - 1]

    def test_needs_provenance(self):
        result = analyze(build_connectbot_example())
        with pytest.raises(ValueError, match="provenance"):
            Explainer(result)

    def test_render_formats(self):
        assert render_fact(flow_fact("n", "v")) == "flowsTo(v, n)"
        assert render_fact(edge_fact("a", "b")) == "flowEdge(a -> b)"
        assert "rel[child]" in render_fact(rel_fact("child", "a", "b"))
        axiom = WitnessStep(edge_fact("a", "b"), None)
        assert render_step(axiom).endswith("[axiom]")
        derived = WitnessStep(
            flow_fact("n", "v"), "Rule", (edge_fact("a", "n"),)
        )
        rendered = render_step(derived)
        assert "<= Rule(" in rendered and "flowEdge(a -> n)" in rendered
        lines = render_witness([axiom, derived])
        assert lines[0].startswith("  1. ") and lines[1].startswith("  2. ")
