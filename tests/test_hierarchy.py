"""Unit tests for class-hierarchy analysis and CHA call-site resolution."""

import json
import os
import subprocess
import sys

import pytest

from repro.app import AndroidApp
from repro.core.builder import build_constraint_graph
from repro.hierarchy.cha import ClassHierarchy
from repro.hierarchy.callgraph import resolve_invoke
from repro.ir.builder import ProgramBuilder
from repro.ir.program import Method, MethodSig, Program
from repro.ir.statements import InvokeKind
from repro.platform.classes import ACTIVITY, VIEW, install_platform


@pytest.fixture()
def diamond_program():
    """A: base class; B, C extend A; I interface implemented by C."""
    pb = ProgramBuilder()
    install_platform(pb.program)
    pb.clazz("app.I", is_interface=True)
    with pb.clazz("app.A") as c:
        with c.method("m", returns="java.lang.Object") as m:
            x = m.new("app.A")
            m.ret(x)
    with pb.clazz("app.B", extends="app.A") as c:
        with c.method("m", returns="java.lang.Object") as m:
            x = m.new("app.B")
            m.ret(x)
    with pb.clazz("app.C", extends="app.A", implements=["app.I"]) as c:
        pass
    return pb.program


class TestSubtyping:
    def test_reflexive(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        assert h.is_subtype("app.A", "app.A")

    def test_direct_and_transitive(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        assert h.is_subtype("app.B", "app.A")
        assert h.is_subtype("app.B", "java.lang.Object")
        assert not h.is_subtype("app.A", "app.B")

    def test_interface_subtyping(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        assert h.is_subtype("app.C", "app.I")
        assert not h.is_subtype("app.B", "app.I")

    def test_subtypes_inverse(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        assert h.subtypes("app.A") == {"app.A", "app.B", "app.C"}
        assert "app.C" in h.subtypes("app.I")

    def test_superclass_chain(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        assert h.superclass_chain("app.B") == ("app.B", "app.A", "java.lang.Object")

    def test_class_facts_are_memoised_and_immutable(self, diamond_program):
        """Per-class answers are computed once, and a caller cannot
        change what a later query returns."""
        h = ClassHierarchy(diamond_program)
        chain = h.superclass_chain("app.B")
        subs = h.subtypes("app.A")
        listeners = h.listener_interfaces_of("app.C")
        assert h.superclass_chain("app.B") is chain
        assert h.subtypes("app.A") is subs
        assert h.listener_interfaces_of("app.C") is listeners
        assert isinstance(chain, tuple) and isinstance(listeners, tuple)
        with pytest.raises(AttributeError):
            subs.add("app.Z")  # type: ignore[attr-defined]
        assert h.subtypes("app.A") == {"app.A", "app.B", "app.C"}

    def test_unknown_class_has_self_supertype(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        assert h.is_subtype("app.Ghost", "app.Ghost")
        assert not h.is_subtype("app.Ghost", "app.A")


class TestDispatch:
    def test_lookup_prefers_most_derived(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        m = h.lookup("app.B", "m", 0)
        assert m is not None and m.class_name == "app.B"

    def test_lookup_walks_up(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        m = h.lookup("app.C", "m", 0)
        assert m is not None and m.class_name == "app.A"

    def test_lookup_missing(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        assert h.lookup("app.A", "nope", 0) is None

    def test_cha_targets_cover_overrides(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        targets = {m.class_name for m in h.cha_targets("app.A", "m", 0)}
        assert targets == {"app.A", "app.B"}

    def test_cha_targets_follow_program_class_order(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        targets = [m.class_name for m in h.cha_targets("app.A", "m", 0)]
        assert targets == ["app.A", "app.B"]

    def test_cha_targets_skip_platform_receivers(self):
        """A platform receiver runs platform code, which the analysis
        models as operations: only application subtypes dispatch."""
        pb = ProgramBuilder()
        install_platform(pb.program)
        text_view = pb.program.clazz("android.widget.TextView")
        text_view.add_method(
            Method("setText", text_view.name, params=[("t", "java.lang.String")])
        )
        with pb.clazz("app.Fancy", extends=VIEW) as c:
            with c.method("setText", params=[("t", "java.lang.String")]) as m:
                m.ret()
        h = ClassHierarchy(pb.program)
        targets = [str(m.sig) for m in h.cha_targets(VIEW, "setText", 1)]
        assert targets == ["app.Fancy.setText/1"]
        with pb.clazz("app.Caption", extends=text_view.name) as c:
            pass
        h = ClassHierarchy(pb.program)
        targets = [str(m.sig) for m in h.cha_targets(VIEW, "setText", 1)]
        assert targets == ["app.Fancy.setText/1", "android.widget.TextView.setText/1"]

    def test_view_activity_listener_tests(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        assert h.is_subtype("android.widget.Button", VIEW)
        assert not h.is_subtype("app.A", VIEW)
        assert h.is_activity_class(ACTIVITY)
        assert not h.is_listener_class("app.A")


class TestCallGraph:
    def _program(self):
        pb = ProgramBuilder()
        install_platform(pb.program)
        with pb.clazz("app.Base") as c:
            with c.method("greet", returns="java.lang.Object") as m:
                x = m.new("app.Base")
                m.ret(x)
        with pb.clazz("app.Derived", extends="app.Base") as c:
            with c.method("greet", returns="java.lang.Object") as m:
                x = m.new("app.Derived")
                m.ret(x)
        with pb.clazz("app.Main") as c:
            with c.method("run") as m:
                b = m.local("b", "app.Base")
                m.new("app.Derived", lhs=m.local("d", "app.Derived"))
                m.assign("b", "d")
                m.invoke("b", "greet", [], lhs=m.local("r", "java.lang.Object"))
                m.ret()
        return pb.program

    @staticmethod
    def _invoke_sites(program):
        """The builder's invoke-site table: the app's CHA call graph."""
        return build_constraint_graph(AndroidApp("t", program)).invoke_sites

    def _edge_count(self, program):
        return sum(len(targets) for *_site, targets in self._invoke_sites(program))

    def test_virtual_call_resolves_to_all_cha_targets(self):
        program = self._program()
        run = program.method("app.Main", "run", 0)
        resolved = resolve_invoke(program, ClassHierarchy(program), run, run.body[2])
        targets = {str(m.sig) for m in resolved}
        assert targets == {"app.Base.greet/0", "app.Derived.greet/0"}

    def test_callers_of(self):
        program = self._program()
        callers = [
            caller
            for caller, _index, _stmt, targets in self._invoke_sites(program)
            if MethodSig("app.Base", "greet", 0) in targets
        ]
        assert {c.name for c in callers} == {"run"}

    def test_platform_calls_produce_no_edges(self):
        pb = ProgramBuilder()
        install_platform(pb.program)
        with pb.clazz("app.Main") as c:
            with c.method("run") as m:
                v = m.local("v", VIEW)
                m.const_null("v")
                m.invoke(v, "findViewById", [m.const_int(1)],
                         lhs=m.local("r", VIEW))
                m.ret()
        assert self._edge_count(pb.program) == 0

    def test_static_call_resolution(self):
        pb = ProgramBuilder()
        install_platform(pb.program)
        with pb.clazz("app.Util") as c:
            with c.method("helper", is_static=True) as m:
                m.ret()
        with pb.clazz("app.Main") as c:
            with c.method("run") as m:
                m.invoke_static("app.Util", "helper")
                m.ret()
        assert self._edge_count(pb.program) == 1

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def test_node_order_is_independent_of_the_hash_seed():
    """The builder interns nodes in CHA target order, so graph node ids
    must not depend on the string hash seed of the process (a ``spawn``
    batch worker gets its own)."""
    code = (
        "import json\n"
        "from repro import analyze\n"
        "from repro.bench.solverbench import scaled_spec\n"
        "from repro.corpus.apps import spec_by_name\n"
        "from repro.corpus.generator import generate_app\n"
        "specs = [spec_by_name('APV'), scaled_spec(8)]\n"
        "print(json.dumps([[str(n) for n in analyze(generate_app(s)).graph.node_list]"
        " for s in specs]))\n"
    )

    def node_lists(seed):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    for left, right in zip(node_lists("0"), node_lists("5")):
        assert len(left) == len(right)
        first = next((i for i, (a, b) in enumerate(zip(left, right)) if a != b), None)
        assert first is None, (first, left[first], right[first])
