"""Unit tests for class-hierarchy analysis and the CHA call graph."""

import pytest

from repro.hierarchy.cha import ClassHierarchy
from repro.hierarchy.callgraph import CallGraph, CallSite, build_call_graph
from repro.ir.builder import ProgramBuilder
from repro.ir.program import MethodSig, Program
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

    def test_view_activity_listener_tests(self, diamond_program):
        h = ClassHierarchy(diamond_program)
        assert h.is_view_class("android.widget.Button")
        assert not h.is_view_class("app.A")
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

    def test_virtual_call_resolves_to_all_cha_targets(self):
        program = self._program()
        graph = build_call_graph(program)
        site = CallSite(MethodSig("app.Main", "run", 0), 2)
        targets = set(map(str, graph.targets(site)))
        assert targets == {"app.Base.greet/0", "app.Derived.greet/0"}

    def test_callers_of(self):
        program = self._program()
        graph = build_call_graph(program)
        callers = graph.callers_of(MethodSig("app.Base", "greet", 0))
        assert {c.caller.name for c in callers} == {"run"}

    def test_reachable_from(self):
        program = self._program()
        graph = build_call_graph(program)
        reach = graph.reachable_from([MethodSig("app.Main", "run", 0)])
        assert MethodSig("app.Derived", "greet", 0) in reach

    def test_reachable_from_sees_edges_added_after_a_query(self):
        graph = CallGraph()
        a, b, c = (MethodSig("app.M", name, 0) for name in "abc")
        graph.add_edge(CallSite(a, 0), b)
        assert graph.reachable_from([a]) == {a, b}
        graph.add_edge(CallSite(b, 0), c)
        assert graph.reachable_from([a]) == {a, b, c}
        assert graph.reachable_from([c]) == {c}

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
        graph = build_call_graph(pb.program)
        assert graph.edge_count() == 0

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
        graph = build_call_graph(pb.program)
        assert graph.edge_count() == 1
