"""Unit and round-trip tests for the Dalvik-text frontend."""

import os
import re

import pytest

from repro import analyze
from repro.app import AndroidApp
from repro.core.metrics import compute_graph_stats, compute_precision
from repro.corpus.apps import spec_by_name
from repro.corpus.connectbot import build_connectbot_example
from repro.corpus.export import dump_app
from repro.corpus.generator import generate_app
from repro.dex import (
    DexSyntaxError,
    assemble_program,
    descriptor_to_type,
    parse_dex_text,
    type_to_descriptor,
)
from repro.dex.descriptors import join_method_descriptor, split_method_descriptor
from repro.dex.parse import _Memo
from repro.ir.statements import (
    Cast,
    ConstInt,
    ConstNull,
    Invoke,
    InvokeKind,
    Load,
    Return,
    StaticLoad,
    StaticStore,
    Store,
)


class TestDescriptors:
    @pytest.mark.parametrize(
        "type_name,descriptor",
        [
            ("int", "I"),
            ("boolean", "Z"),
            ("void", "V"),
            ("java.lang.String", "Ljava/lang/String;"),
            ("android.view.View$OnClickListener", "Landroid/view/View$OnClickListener;"),
        ],
    )
    def test_roundtrip(self, type_name, descriptor):
        assert type_to_descriptor(type_name) == descriptor
        assert descriptor_to_type(descriptor) == type_name

    def test_malformed_descriptor(self):
        with pytest.raises(ValueError):
            descriptor_to_type("Lunclosed")

    def test_method_descriptor_split(self):
        params, ret = split_method_descriptor("(ILandroid/view/View;Z)V")
        assert params == ["int", "android.view.View", "boolean"]
        assert ret == "void"

    def test_method_descriptor_join(self):
        assert join_method_descriptor(["int"], "android.view.View") == (
            "(I)Landroid/view/View;"
        )

    def test_empty_params(self):
        assert split_method_descriptor("()V") == ([], "void")


# (Dalvik text, error message pattern, line the error names)
_ERROR_CASES = [
    ("garbage", "unexpected top-level", 1),
    (".class Lp/A;\n.method m()V\n", "missing .end method", 2),
    (".class Lp/A;\n.method m()V\n    warp x\n.end method\n.end class",
     "unknown opcode", 3),
    (".class Lp/A;\n.method m()V\n    move-result-object r\n"
     ".end method\n.end class", "move-result without invoke", 3),
    (".class Lp/A;\n.method m()V\n"
     "    invoke-virtual {this, a}, Lp/A;->m()V\n"
     ".end method\n.end class", "argument count", 3),
    (".class Lp/A;\n.method m()V\n    .local s, Ljava/lang/String;\n"
     '    const-string s, "\n'
     "    return-void\n.end method\n.end class",
     "malformed string literal", 4),
    (".class Lp/A;\n.method m()V\n    .local x, Ljava/lang/Object;\n"
     "    const/4 x, 0\n\n    # a comment\n    warp x\n"
     "    return-void\n.end method\n.end class", "unknown opcode 'warp'", 7),
]


class TestParser:
    def test_minimal_class(self):
        program = parse_dex_text(".class Lp/A;\n.super Ljava/lang/Object;\n.end class")
        clazz = program.clazz("p.A")
        assert clazz is not None and clazz.superclass == "java.lang.Object"

    def test_interface(self):
        program = parse_dex_text(".interface Lp/I;\n.end class")
        assert program.clazz("p.I").is_interface

    def test_fields(self):
        program = parse_dex_text(
            ".class Lp/A;\n.field f:I\n.field static g:Ljava/lang/String;\n.end class"
        )
        clazz = program.clazz("p.A")
        assert clazz.fields["f"].type_name == "int"
        assert clazz.fields["g"].is_static

    def test_method_with_params_and_locals(self):
        program = parse_dex_text(
            ".class Lp/A;\n"
            ".method m(ILjava/lang/Object;)V\n"
            "    .param x, I\n"
            "    .param y, Ljava/lang/Object;\n"
            "    .local t, Ljava/lang/Object;\n"
            "    move t, y\n"
            "    return-void\n"
            ".end method\n"
            ".end class"
        )
        method = program.clazz("p.A").method("m", 2)
        assert method.param_names == ["x", "y"]
        assert method.locals["t"].type_name == "java.lang.Object"

    def test_invoke_merges_move_result(self):
        program = parse_dex_text(
            ".class Lp/A;\n"
            ".method m()V\n"
            "    .local r, Ljava/lang/Object;\n"
            "    invoke-virtual {this}, Lp/A;->g()Ljava/lang/Object;\n"
            "    move-result-object r\n"
            "    return-void\n"
            ".end method\n"
            ".method g()Ljava/lang/Object;\n"
            "    .local x, Ljava/lang/Object;\n"
            "    const/4 x, 0\n"
            "    return-object x\n"
            ".end method\n"
            ".end class"
        )
        body = program.clazz("p.A").method("m", 0).body
        call = next(s for s in body if isinstance(s, Invoke))
        assert call.lhs == "r"

    def test_invoke_without_result(self):
        program = parse_dex_text(
            ".class Lp/A;\n"
            ".method m()V\n"
            "    invoke-virtual {this}, Lp/A;->m()V\n"
            "    return-void\n"
            ".end method\n"
            ".end class"
        )
        call = next(
            s for s in program.clazz("p.A").method("m", 0).body
            if isinstance(s, Invoke)
        )
        assert call.lhs is None

    def test_move_checkcast_peephole(self):
        program = parse_dex_text(
            ".class Lp/A;\n"
            ".method m()V\n"
            "    .local a, Ljava/lang/Object;\n"
            "    .local b, Ljava/lang/String;\n"
            "    const/4 a, 0\n"
            "    move b, a\n"
            "    check-cast b, Ljava/lang/String;\n"
            "    return-void\n"
            ".end method\n"
            ".end class"
        )
        body = program.clazz("p.A").method("m", 0).body
        casts = [s for s in body if isinstance(s, Cast)]
        assert casts and casts[0].rhs == "a" and casts[0].lhs == "b"

    def test_const4_zero_is_null(self):
        program = parse_dex_text(
            ".class Lp/A;\n.method m()V\n    .local x, Ljava/lang/Object;\n"
            "    const/4 x, 0\n    return-void\n.end method\n.end class"
        )
        body = program.clazz("p.A").method("m", 0).body
        assert any(isinstance(s, ConstNull) for s in body)

    def test_line_comments_recovered(self):
        program = parse_dex_text(
            ".class Lp/A;\n.method m()V\n    .local x, Ljava/lang/Object;\n"
            "    const/4 x, 0  # line 42\n    return-void\n.end method\n.end class"
        )
        body = program.clazz("p.A").method("m", 0).body
        assert body[0].line == 42

    @pytest.mark.parametrize(
        "text,message,line",
        _ERROR_CASES,
        # Each case keeps the id "<text>-<message>".
        ids=[f"{text}-{message}" for text, message, _line in _ERROR_CASES],
    )
    def test_errors(self, text, message, line):
        with pytest.raises(DexSyntaxError, match=message) as info:
            parse_dex_text(text)
        assert info.value.line == line

    # Spellings the loader accepts beyond the assembler's own, with the
    # statement each must load as.
    @pytest.mark.parametrize(
        "instruction,expected",
        [
            ("iget x, this, Lp/A;->f:Ljava/lang/Object;", Load("x", "this", "f")),
            ("iget-wide x, this, Lp/A;->f:J", Load("x", "this", "f")),
            ("iput-boolean x, this, Lp/A;->f:Z", Store("this", "f", "x")),
            ("sget x, Lp/A;->g:I", StaticLoad("x", "p.A", "g")),
            ("sput-object x, Lp/A;->g:Ljava/lang/Object;", StaticStore("p.A", "g", "x")),
            ("return x", Return("x")),
            ("return-wide x", Return("x")),
            ("const/16 x, 7", ConstInt("x", 7)),
            ("const/high16 x, 0x10000", ConstInt("x", 0x10000)),
            ("move-result x", Invoke("x", InvokeKind.VIRTUAL, "this", "p.A", "m", ())),
            ("move-result-wide x",
             Invoke("x", InvokeKind.VIRTUAL, "this", "p.A", "m", ())),
        ],
    )
    def test_dialect_spellings(self, instruction, expected):
        program = parse_dex_text(
            ".class Lp/A;\n.method m()V\n    .local x, Ljava/lang/Object;\n"
            "    invoke-virtual {this}, Lp/A;->m()V\n"
            f"    {instruction}\n.end method\n.end class"
        )
        assert program.clazz("p.A").method("m", 0).body[-1] == expected


@pytest.fixture(scope="module")
def apv_smali(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("apv"))
    dump_app(generate_app(spec_by_name("APV")), path)
    with open(os.path.join(path, "classes.smali"), encoding="utf-8") as f:
        return f.read().splitlines()


class TestMalformedDescriptorsLocated:
    """Malformed descriptors and operand lists in a dumped app end in a
    DexSyntaxError naming the offending line, not a bare ValueError."""

    @pytest.mark.parametrize(
        "pattern,old,new",
        [
            # .super without the closing ';'
            (r"^\.super Ljava/lang/Object;$", "Object;", "Object"),
            # .param with an unterminated class descriptor
            (r"^\s*\.param \S+, Landroid/view/View;$", "View;", "View"),
            # method header whose parameter descriptor is unterminated
            (r"^\.method onClick\(Landroid/view/View;\)V$", "View;)", "View)"),
            # new-instance with its operand comma missing
            (r"^\s*new-instance \S+, ", ", ", " "),
        ],
        ids=["super", "param", "method-header", "new-instance"],
    )
    def test_mutation_raises_located_error(self, apv_smali, pattern, old, new):
        lines = list(apv_smali)
        index = next(i for i, line in enumerate(lines) if re.search(pattern, line))
        lines[index] = lines[index].replace(old, new, 1)
        with pytest.raises(DexSyntaxError) as info:
            parse_dex_text("\n".join(lines))
        assert info.value.line == index + 1
        assert str(info.value).startswith(f"line {index + 1}: ")

    @pytest.mark.parametrize(
        "pattern,old,new,message",
        [
            # a local type the parse has resolved many times before
            (r"^\s*\.local \S+, Landroid/view/View;$", "View;", "View",
             "malformed type descriptor"),
            # an opcode word the parse has resolved many times before
            (r"^\s*invoke-virtual ", "invoke-virtual", "invokx-virtual",
             "unknown opcode"),
        ],
        ids=["descriptor", "opcode"],
    )
    def test_last_use_is_located_after_memoised_uses(
        self, apv_smali, pattern, old, new, message
    ):
        """The per-parse memos store only results: a bad spelling of a
        word resolved earlier still fails, at its own line."""
        lines = list(apv_smali)
        index = max(i for i, line in enumerate(lines) if re.search(pattern, line))
        lines[index] = lines[index].replace(old, new, 1)
        with pytest.raises(DexSyntaxError, match=message) as info:
            parse_dex_text("\n".join(lines))
        assert info.value.line == index + 1


class TestMemo:
    def test_resolves_each_key_once(self):
        calls = []
        memo = _Memo(lambda key: calls.append(key) or key.upper())
        assert memo["a"] == "A" and memo["a"] == "A" and memo["b"] == "B"
        assert calls == ["a", "b"]

    def test_failures_are_not_stored(self):
        memo = _Memo(descriptor_to_type)
        for _ in range(2):
            with pytest.raises(ValueError, match="malformed type descriptor"):
                memo["Lp/A"]
        assert "Lp/A" not in memo

    def test_type_names_are_shared(self):
        program = parse_dex_text(
            ".class Lp/A;\n"
            ".field f:Lp/B;\n"
            ".method m()V\n"
            "    .local x, Lp/B;\n"
            "    .local y, Lp/B;\n"
            "    new-instance x, Lp/B;\n"
            "    return-void\n"
            ".end method\n"
            ".end class"
        )
        clazz = program.clazz("p.A")
        method = clazz.method("m", 0)
        names = [
            clazz.fields["f"].type_name,
            method.locals["x"].type_name,
            method.locals["y"].type_name,
            method.body[0].class_name,
        ]
        assert names == ["p.B"] * 4
        assert all(name is names[0] for name in names)


class TestRoundTrip:
    def test_connectbot_solution_preserved(self):
        app = build_connectbot_example()
        program2 = parse_dex_text(assemble_program(app.program))
        app2 = AndroidApp("rt", program2, app.resources, app.manifest)
        r1, r2 = analyze(app), analyze(app2)
        assert compute_graph_stats(r1).as_row()[1:] == compute_graph_stats(r2).as_row()[1:]
        assert compute_precision(r1).as_row()[2:] == compute_precision(r2).as_row()[2:]
        v1 = {str(v) for v in r1.views_at_var(
            "connectbot.EscapeButtonListener", "onClick", 1, "v")}
        v2 = {str(v) for v in r2.views_at_var(
            "connectbot.EscapeButtonListener", "onClick", 1, "v")}
        assert v1 == v2 == {"TerminalView_21"}

    def test_assembly_idempotent(self):
        app = build_connectbot_example()
        text1 = assemble_program(app.program)
        text2 = assemble_program(parse_dex_text(text1))
        text3 = assemble_program(parse_dex_text(text2))
        assert text2 == text3

    def test_frontend_to_dex_pipeline(self):
        """Java subset -> IR -> Dalvik text -> IR -> analysis."""
        from repro.frontend import load_app_from_sources

        app = load_app_from_sources(
            "t",
            ["package p; class Main extends Activity {"
             " void onCreate() {"
             "   this.setContentView(R.layout.main);"
             "   View b = this.findViewById(R.id.ok);"
             " } }"],
            {"main": '<LinearLayout><Button android:id="@+id/ok"/></LinearLayout>'},
        )
        program2 = parse_dex_text(assemble_program(app.program))
        app2 = AndroidApp("t2", program2, app.resources, app.manifest)
        result = analyze(app2)
        views = result.views_at_var("p.Main", "onCreate", 0, "b")
        assert {v.view_class for v in views} == {"android.widget.Button"}
