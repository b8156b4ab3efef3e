"""The cycle collector pause and the acyclic heap it relies on.

``gc_paused`` must leave the collector as it found it. The entry points
it wraps must create no reference cycle: while the collector is paused
a cycle would not be freed, and memory would grow silently.
"""

import gc
import os

import pytest

from repro import AnalysisOptions, analyze
from repro.bench.lintbench import _lint_job
from repro.bench.table1 import _table1_job
from repro.bench.table2 import _table2_job
from repro.clients.transitions import build_transition_graph
from repro.core.analysis import GuiReferenceAnalysis
from repro.core.diff import solution_fingerprint
from repro.corpus.apps import spec_by_name
from repro.corpus.generator import generate_app
from repro.dex import DexSyntaxError, assemble_program, parse_dex_text
from repro.errors import ReproError
from repro.gcpause import gc_paused
from repro.runner.tasks import BatchTarget, analyze_job, load_target


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


# -- a batch worker's whole job leaves no cyclic garbage -----------------------
#
# A worker keeps the collector off from loading its target to sending
# the job's payload, so everything on that path must be acyclic too:
# loading a project directory (menus, layouts, the manifest) and every
# job the runner is given.

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples", "projects")


def _project(name):
    return BatchTarget(name, "dir", os.path.join(EXAMPLES, name))


WORKER_JOBS = {
    "analyze_job-spec": (BatchTarget(SPEC, "spec"), analyze_job, ()),
    "analyze_job-notepad": (_project("notepad"), analyze_job, ()),
    "analyze_job-buggy": (_project("buggy"), analyze_job, ()),
    "table1": (BatchTarget(SPEC, "spec"), _table1_job, ()),
    "table2": (BatchTarget(SPEC, "spec"), _table2_job, ()),
    "lint-provenance-witnesses": (BatchTarget(SPEC, "spec"), _lint_job, (1,)),
}


@pytest.mark.parametrize("target, job, args", WORKER_JOBS.values(), ids=WORKER_JOBS.keys())
def test_worker_job_leaves_no_cyclic_garbage(collector_on, target, job, args):
    """``load_target`` then the job, as a worker runs them: dropping the
    payload leaves nothing for ``gc.collect()``."""
    job(load_target(target), AnalysisOptions(), *args)  # warm-up
    gc.collect()
    gc.disable()
    payload = job(load_target(target), AnalysisOptions(), *args)
    assert payload is not None
    assert not gc.isenabled()
    del payload
    assert gc.collect() == 0


def test_input_error_leaves_no_cyclic_garbage(collector_on):
    """A worker reports a malformed project and exits; the frontend
    error and the parser frames in its traceback are freed without
    the collector too."""
    broken = _project("broken")
    with pytest.raises(ReproError):  # warm-up
        load_target(broken)
    gc.collect()
    gc.disable()
    with pytest.raises(ReproError):
        load_target(broken)
    assert gc.collect() == 0
