"""The cycle collector pause and the acyclic heap it relies on.

``gc_paused`` must leave the collector as it found it. The entry points
it wraps must create no reference cycle: while the collector is paused
a cycle would not be freed, and memory would grow silently.
"""

import gc

import pytest

from repro import AnalysisOptions, analyze
from repro.clients.transitions import build_transition_graph
from repro.core.analysis import GuiReferenceAnalysis
from repro.core.diff import solution_fingerprint
from repro.corpus.apps import spec_by_name
from repro.corpus.generator import generate_app
from repro.dex import DexSyntaxError, assemble_program, parse_dex_text
from repro.gcpause import gc_paused


@pytest.fixture
def collector_on():
    """The collector on at the start, and back on whatever the test did."""
    gc.enable()
    yield
    gc.enable()


class TestGcPaused:
    def test_restored_after_return(self, collector_on):
        threshold = gc.get_threshold()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()
        assert gc.get_threshold() == threshold

    def test_restored_after_exception(self, collector_on):
        with pytest.raises(KeyError):
            with gc_paused():
                assert not gc.isenabled()
                raise KeyError("x")
        assert gc.isenabled()

    def test_nested_use_keeps_it_off_until_the_outer_exits(self, collector_on):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_a_disabled_caller_finds_it_disabled(self, collector_on):
        gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(KeyError):
            with gc_paused():
                raise KeyError("x")
        assert not gc.isenabled()

    def test_as_decorator(self, collector_on):
        @gc_paused()
        def phase(fail):
            assert not gc.isenabled()
            if fail:
                raise KeyError("x")
            return "done"

        assert phase(False) == "done"
        assert phase.__name__ == "phase"
        assert gc.isenabled()
        with pytest.raises(KeyError):
            phase(True)
        assert gc.isenabled()

        # Recursion re-enters the same decorated function.
        @gc_paused()
        def depth(n):
            assert not gc.isenabled()
            return 0 if n == 0 else 1 + depth(n - 1)

        assert depth(3) == 3
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_entry_point_that_raises_restores_the_state(self, collector_on, enabled):
        if not enabled:
            gc.disable()
        with pytest.raises(DexSyntaxError):
            parse_dex_text(".class Lp/A;\n.method m()V\n    warp x\n.end method\n.end class")
        assert gc.isenabled() is enabled


# -- the paused entry points leave no cyclic garbage ---------------------------
#
# Each case is (setup, call): ``setup(app)`` makes the entry point's
# input with the collector on, ``call(state)`` runs the entry point.

SPEC = "TippyTipper"


def _solve(provenance):
    return (
        lambda app: GuiReferenceAnalysis(app, AnalysisOptions(provenance=provenance)),
        lambda ga: ga.solve(),
    )


CASES = {
    "parse_dex_text": (lambda app: assemble_program(app.program), parse_dex_text),
    "generate_app": (lambda app: spec_by_name(SPEC), generate_app),
    "build": (lambda app: app, GuiReferenceAnalysis),
    "solve": _solve(False),
    "solve-provenance": _solve(True),
    "analyze": (lambda app: app, analyze),
    "solution_fingerprint": (analyze, solution_fingerprint),
    "transitions": (analyze, build_transition_graph),
}


@pytest.fixture(scope="module")
def corpus_app():
    return generate_app(spec_by_name(SPEC))


@pytest.mark.parametrize("setup, call", CASES.values(), ids=CASES.keys())
def test_entry_point_leaves_no_cyclic_garbage(collector_on, corpus_app, setup, call):
    """Dropping an entry point's result and input frees them by reference
    counting; ``gc.collect()`` finds nothing left."""
    call(setup(corpus_app))  # warm-up: module-import garbage is not the entry point's
    state = setup(corpus_app)
    gc.collect()
    gc.disable()
    result = call(state)
    assert result is not None
    assert not gc.isenabled()
    del state, result
    assert gc.collect() == 0
