"""Dedicated tests for ``ir/validate.py`` — one per error path.

The validator is the frontier between the frontend/builders and every
analysis that trusts IR well-formedness; each check gets a minimal
program that trips exactly that diagnostic, plus the benefit-of-the-
doubt paths (platform receivers, unknown ancestors) that must NOT
trip it.
"""

import pytest

from repro.ir.program import Clazz, Field, Method, Program
from repro.ir.statements import (
    Assign,
    ConstLayoutId,
    ConstMenuId,
    Goto,
    If,
    Invoke,
    InvokeKind,
    Load,
    New,
    Store,
)
from repro.ir.validate import IRValidationError, validate_program
from repro.platform.classes import install_platform


def _program_with(method: Method, *classes: Clazz) -> Program:
    p = Program()
    install_platform(p)
    c = Clazz("app.C")
    c.add_method(method)
    p.add_class(c)
    for extra in classes:
        p.add_class(extra)
    return p


def _method(*stmts, locals=()) -> Method:
    m = Method("run", "app.C")
    for name, type_name in locals:
        m.add_local(name, type_name)
    for stmt in stmts:
        m.append(stmt)
    return m


class TestUndeclaredLocal:
    def test_use_of_undeclared_local(self):
        m = _method(Assign("x", "ghost"), locals=[("x", "app.C")])
        with pytest.raises(IRValidationError, match="undeclared local 'ghost'"):
            validate_program(_program_with(m))

    def test_def_of_undeclared_local(self):
        m = _method(New("ghost", "app.C"))
        with pytest.raises(IRValidationError, match="undeclared local 'ghost'"):
            validate_program(_program_with(m))

    def test_declared_locals_pass(self):
        m = _method(Assign("x", "y"), locals=[("x", "app.C"), ("y", "app.C")])
        assert validate_program(_program_with(m)) == []


class TestJumpTargets:
    def test_goto_unknown_label(self):
        m = _method(Goto("nowhere"))
        with pytest.raises(
            IRValidationError, match="goto to unknown label 'nowhere'"
        ):
            validate_program(_program_with(m))

    def test_branch_unknown_label(self):
        m = _method(If("x", "elsewhere"), locals=[("x", "int")])
        with pytest.raises(
            IRValidationError, match="branch to unknown label 'elsewhere'"
        ):
            validate_program(_program_with(m))

    def test_labels_are_method_scoped(self):
        """A label in another method does not satisfy a jump."""
        other = Method("helper", "app.C")
        from repro.ir.statements import Label

        other.append(Label("shared"))
        m = _method(Goto("shared"))
        p = _program_with(m)
        p.clazz("app.C").add_method(other)
        with pytest.raises(IRValidationError, match="unknown label 'shared'"):
            validate_program(p)


class TestClassReferences:
    def test_unknown_superclass(self):
        p = Program()
        install_platform(p)
        p.add_class(Clazz("app.C", superclass="app.Vanished"))
        with pytest.raises(
            IRValidationError, match="unknown superclass 'app.Vanished'"
        ):
            validate_program(p)

    def test_unknown_interface(self):
        p = Program()
        install_platform(p)
        p.add_class(Clazz("app.C", interfaces=["app.NoSuchIface"]))
        with pytest.raises(
            IRValidationError, match="unknown interface 'app.NoSuchIface'"
        ):
            validate_program(p)


class TestInheritanceCycles:
    @staticmethod
    def _program(*pairs):
        p = Program()
        install_platform(p)
        for name, superclass in pairs:
            p.add_class(Clazz(name, superclass=superclass))
        return p

    def test_two_class_cycle_names_both(self):
        p = self._program(("app.CycA", "app.CycB"), ("app.CycB", "app.CycA"))
        with pytest.raises(IRValidationError) as info:
            validate_program(p)
        assert info.value.errors == [
            "app.CycA: cyclic inheritance: app.CycA extends app.CycB extends app.CycA"
        ]

    def test_self_extension(self):
        p = self._program(("app.Me", "app.Me"))
        assert validate_program(p, strict=False) == [
            "app.Me: cyclic inheritance: app.Me extends app.Me"
        ]

    def test_cycle_reported_once_without_its_descendants(self):
        p = self._program(
            ("app.Leaf", "app.A"),
            ("app.A", "app.B"),
            ("app.B", "app.C"),
            ("app.C", "app.A"),
            ("app.Other", "app.Leaf"),
        )
        assert validate_program(p, strict=False) == [
            "app.A: cyclic inheritance: app.A extends app.B extends app.C extends app.A"
        ]

    def test_deep_acyclic_chain_passes(self):
        depth = 5000
        p = self._program(
            *((f"app.K{i}", f"app.K{i - 1}" if i else None) for i in range(depth))
        )
        assert validate_program(p, strict=False) == []

    def test_chain_through_platform_class_passes(self):
        p = self._program(
            ("app.Main", "android.app.Activity"), ("app.Sub", "app.Main")
        )
        assert validate_program(p, strict=False) == []


class TestFieldAccess:
    def test_unknown_field_load(self):
        m = _method(
            Load("x", "this", "no_such_field"), locals=[("x", "app.C")]
        )
        with pytest.raises(IRValidationError, match="no_such_field"):
            validate_program(_program_with(m))

    def test_unknown_field_store(self):
        m = _method(
            Store("this", "no_such_field", "x"), locals=[("x", "app.C")]
        )
        with pytest.raises(IRValidationError, match="no_such_field"):
            validate_program(_program_with(m))

    def test_field_on_ancestor_passes(self):
        base = Clazz("app.Base")
        base.add_field(Field("shared", "app.Base"))
        m = _method(Load("x", "this", "shared"), locals=[("x", "app.C")])
        p = Program()
        install_platform(p)
        c = Clazz("app.C", superclass="app.Base")
        c.add_method(m)
        p.add_class(c)
        p.add_class(base)
        assert validate_program(p) == []

    def test_platform_receiver_gets_benefit_of_doubt(self):
        """Platform types may have unmodelled fields."""
        m = _method(
            Load("x", "v", "unmodelled"),
            locals=[("x", "app.C"), ("v", "android.view.View")],
        )
        assert validate_program(_program_with(m)) == []


class TestCallTargets:
    def test_unresolved_application_call(self):
        m = _method(
            Invoke(None, InvokeKind.VIRTUAL, "this", "app.C", "missing", ())
        )
        with pytest.raises(IRValidationError, match="call target .*missing/0"):
            validate_program(_program_with(m))

    def test_call_resolving_on_ancestor_passes(self):
        base = Clazz("app.Base")
        base.add_method(Method("inherited", "app.Base"))
        m = _method(
            Invoke(None, InvokeKind.VIRTUAL, "this", "app.C", "inherited", ())
        )
        p = Program()
        install_platform(p)
        c = Clazz("app.C", superclass="app.Base")
        c.add_method(m)
        p.add_class(c)
        p.add_class(base)
        assert validate_program(p) == []


class TestReporting:
    def test_non_strict_returns_messages(self):
        m = _method(Goto("nowhere"), Assign("x", "ghost"), locals=[("x", "app.C")])
        errors = validate_program(_program_with(m), strict=False)
        assert len(errors) == 2
        assert any("unknown label" in e for e in errors)
        assert any("undeclared local" in e for e in errors)

    def test_strict_exception_carries_all_errors(self):
        m = _method(Goto("a"), Goto("b"))
        with pytest.raises(IRValidationError) as exc_info:
            validate_program(_program_with(m))
        assert len(exc_info.value.errors) == 2

    def test_platform_classes_are_skipped(self):
        p = Program()
        install_platform(p)
        assert validate_program(p) == []


class TestResourceReferences:
    def _resources(self):
        from repro.resources.menu import parse_menu_xml
        from repro.resources.rtable import ResourceTable
        from repro.resources.xml_parser import parse_layout_xml

        table = ResourceTable()
        table.add_layout(parse_layout_xml("main", "<LinearLayout/>"))
        table.add_menu(parse_menu_xml("actions", "<menu/>"))
        return table

    def test_every_dangling_reference_reported_with_line(self):
        m = _method(
            ConstLayoutId("l", "nope", line=7),
            ConstMenuId("n", "gone", line=9),
            ConstLayoutId("k", "main", line=11),
            locals=[("l", "int"), ("n", "int"), ("k", "int")],
        )
        errors = validate_program(
            _program_with(m), strict=False, resources=self._resources()
        )
        assert errors == [
            "app.C.run/0[0] line 7: R.layout.nope names no layout",
            "app.C.run/0[1] line 9: R.menu.gone names no menu",
        ]

    def test_unchecked_without_resources(self):
        m = _method(ConstLayoutId("l", "nope"), locals=[("l", "int")])
        assert validate_program(_program_with(m)) == []
