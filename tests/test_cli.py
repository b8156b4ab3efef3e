"""Tests for the `python -m repro` command-line interface."""

import json
import os
import sys

import pytest

from repro.__main__ import main

PROJECT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "examples", "projects", "notepad")
)


class TestAnalyze:
    def test_basic(self, capsys):
        assert main(["analyze", PROJECT]) == 0
        out = capsys.readouterr().out
        assert "app: notepad" in out
        assert "NotesListActivity" in out
        assert "options menu" in out

    def test_json(self, capsys):
        assert main(["analyze", PROJECT, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["app"] == "notepad"
        assert data["gui_tuples"]

    def test_tuples_and_transitions(self, capsys):
        assert main(["analyze", PROJECT, "--tuples", "--transitions"]) == 0
        out = capsys.readouterr().out
        assert "GUI tuples:" in out
        assert "-> com.example.notepad.EditNoteActivity" in out

    def test_checks_clean_exit_zero(self, capsys):
        assert main(["analyze", PROJECT, "--checks"]) == 0

    def test_checks_buggy_exit_one(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "res" / "layout").mkdir(parents=True)
        (tmp_path / "src" / "a.alite").write_text(
            "package p; class A extends Activity {"
            " void onCreate() {"
            "   this.setContentView(R.layout.m);"
            "   View x = this.findViewById(R.id.ghost);"
            " } }"
        )
        (tmp_path / "res" / "layout" / "m.xml").write_text(
            '<LinearLayout android:id="@+id/real"/>'
        )
        assert main(["analyze", str(tmp_path), "--checks"]) == 1
        assert "unresolved-lookup" in capsys.readouterr().out

    def test_dot_output(self, tmp_path, capsys):
        dot_file = str(tmp_path / "graph.dot")
        assert main(["analyze", PROJECT, "--dot", dot_file]) == 0
        with open(dot_file) as f:
            assert f.read().startswith("digraph constraint_graph")

    def test_taint(self, capsys):
        assert main(["analyze", PROJECT, "--taint"]) == 0
        assert "EditText" in capsys.readouterr().out


class TestRunAndDisasm:
    def test_run(self, capsys):
        assert main(["run", PROJECT]) == 0
        out = capsys.readouterr().out
        assert "soundness:" in out
        assert "0 violations" in out

    def test_disasm_stdout(self, capsys):
        assert main(["disasm", PROJECT]) == 0
        out = capsys.readouterr().out
        assert ".class Lcom/example/notepad/NotesListActivity;" in out
        assert "const-menu" in out

    def test_disasm_file_roundtrips(self, tmp_path, capsys):
        target = str(tmp_path / "app.smali")
        assert main(["disasm", PROJECT, "-o", target]) == 0
        from repro.dex import parse_dex_text

        with open(target) as f:
            program = parse_dex_text(f.read())
        assert program.clazz("com.example.notepad.NotesListActivity") is not None


class TestInterrupt:
    def test_ctrl_c_exits_130(self, monkeypatch, capsys):
        import repro.__main__ as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_analyze", interrupted)
        assert main(["analyze", PROJECT]) == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["interrupted"]


class TestClosedPipe:
    def test_broken_pipe_exits_141(self, monkeypatch, capsys):
        import repro.__main__ as cli

        def closed(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_cmd_analyze", closed)
        assert main(["analyze", PROJECT]) == 141
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_stdout_is_pointed_at_devnull(self, monkeypatch, tmp_path):
        """What is still buffered, and anything printed afterwards, goes
        to devnull, so the flush at shutdown cannot raise again."""
        import repro.__main__ as cli

        def closed(args):
            print("buffered, never written")
            raise BrokenPipeError

        path = tmp_path / "stdout"
        with open(path, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            monkeypatch.setattr(cli, "_cmd_analyze", closed)
            assert main(["analyze", PROJECT]) == 141
            print("after the pipe closed")
            out.flush()
        assert path.read_text() == ""


BROKEN = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "examples", "projects", "broken")
)


class TestMalformedInput:
    """Bad input ends in a located ``error:`` line and exit code 2."""

    @pytest.mark.parametrize("command", ["analyze", "lint", "run", "disasm"])
    def test_broken_source(self, command, capsys):
        assert main([command, BROKEN]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: src/BrokenActivity.alite:12:1: unexpected token"
        )
        assert "Traceback" not in captured.err + captured.out

    def test_malformed_layout(self, tmp_path, capsys):
        import shutil

        project = tmp_path / "notepad"
        shutil.copytree(PROJECT, project)
        (project / "res" / "layout" / "header.xml").write_text("<LinearLayout>")
        assert main(["analyze", str(project)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: res/layout/header.xml:1:15: XML parse error")

    def test_lowering_error_names_file(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "A.alite").write_text(
            "package p;\nclass A extends Zorp {\n}\n"
        )
        assert main(["analyze", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: src/A.alite:2: unknown type 'Zorp'")

    @staticmethod
    def _notepad(tmp_path):
        import shutil

        project = tmp_path / "notepad"
        shutil.copytree(PROJECT, project)
        return project

    @staticmethod
    def _dump(tmp_path):
        from repro.corpus.apps import spec_by_name
        from repro.corpus.export import dump_app
        from repro.corpus.generator import generate_app

        target = tmp_path / "apv"
        dump_app(generate_app(spec_by_name("APV")), str(target))
        return target

    def _expect_error(self, project, prefix, capsys):
        self._expect_cli_error(["analyze", str(project)], prefix, capsys)

    def _expect_cli_error(self, argv, prefix, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {prefix}")
        assert sum(line.startswith("error:") for line in captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err + captured.out

    def test_malformed_manifest(self, tmp_path, capsys):
        project = self._notepad(tmp_path)
        (project / "AndroidManifest.xml").write_text("<manifest")
        self._expect_error(project, "AndroidManifest.xml:1:1: XML parse error", capsys)

    def test_manifest_names_unknown_activity(self, tmp_path, capsys):
        project = self._notepad(tmp_path)
        manifest = project / "AndroidManifest.xml"
        manifest.write_text(
            manifest.read_text().replace(".EditNoteActivity", ".Ghost")
        )
        self._expect_error(
            project,
            "AndroidManifest.xml: unknown activity 'com.example.notepad.Ghost'",
            capsys,
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            # Explicit ids keep the test names stable now that the
            # expected prefix carries the file's location.
            pytest.param(
                "<resources><item", "res/values/ids.xml:1:12: XML parse error",
                id="<resources><item-XML parse error",
            ),
            pytest.param(
                '<resources><item type="id"/></resources>',
                "res/values/ids.xml: id item without a name",
                id='<resources><item type="id"/></resources>-id item without a name',
            ),
        ],
    )
    def test_malformed_ids_xml(self, text, message, tmp_path, capsys):
        project = self._dump(tmp_path)
        (project / "res" / "values" / "ids.xml").write_text(text)
        self._expect_error(project, message, capsys)

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("layout", "NotesListActivity.onCreate/0[0] line 18: R.layout.nope names no layout"),
            ("menu", "NotesListActivity.onCreateOptionsMenu/1[2] line 48: R.menu.nope names no menu"),
        ],
    )
    def test_dangling_resource_reference(self, kind, message, tmp_path, capsys):
        import re

        project = self._notepad(tmp_path)
        source = project / "src" / "NotesListActivity.alite"
        text, count = re.subn(rf"R\.{kind}\.\w+", f"R.{kind}.nope", source.read_text(), 1)
        assert count == 1
        source.write_text(text)
        self._expect_error(project, f"com.example.notepad.{message}", capsys)

    def test_dump_missing_layout(self, tmp_path, capsys):
        project = self._dump(tmp_path)
        (project / "res" / "layout" / "layout_0.xml").unlink()
        self._expect_error(
            project, "gen.apv.Activity0.onCreate/0[0] line 100: R.layout.layout_0", capsys
        )

    def test_dump_without_manifest_loads(self, tmp_path, capsys):
        project = self._dump(tmp_path)
        (project / "AndroidManifest.xml").unlink()
        assert main(["analyze", str(project)]) == 0
        assert "Activity0" in capsys.readouterr().out

    def test_duplicate_method_in_source(self, tmp_path, capsys):
        project = self._notepad(tmp_path)
        source = project / "src" / "EditNoteActivity.alite"
        text = source.read_text()
        source.write_text(text.replace("    void open() { }\n", "    void open() { }\n" * 2, 1))
        self._expect_error(
            project,
            "src/EditNoteActivity.alite:10: duplicate method open/0 in "
            "com.example.notepad.EditNoteActivity",
            capsys,
        )

    @pytest.mark.parametrize(
        "header, message",
        [
            (".field ", "duplicate field 'lst0' in gen.apv.Listeners"),
            (".method ", "duplicate method onClick/1 in gen.apv.Listener0"),
            (".class ", "duplicate class 'gen.apv.Listener0'"),
        ],
        ids=["field", "method", "class"],
    )
    def test_duplicate_member_in_smali(self, header, message, tmp_path, capsys):
        """The second declaration of a member or class is the error line."""
        project = self._dump(tmp_path)
        smali = project / "classes.smali"
        lines = smali.read_text().splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines) if line.startswith(header))
        end = start
        if header != ".field ":
            closer = ".end method" if header == ".method " else ".end class"
            end = next(i for i in range(start, len(lines)) if lines[i].startswith(closer))
        block = lines[start:end + 1]
        smali.write_text("".join(lines[:end + 1] + block + lines[end + 1:]))
        self._expect_error(project, f"classes.smali:{end + 2}: {message}", capsys)

    @pytest.mark.parametrize(
        "relpath",
        [
            "src/EditNoteActivity.alite",
            "res/layout/header.xml",
            "res/menu/list_actions.xml",
            "AndroidManifest.xml",
        ],
    )
    def test_non_utf8_file(self, relpath, tmp_path, capsys):
        project = self._notepad(tmp_path)
        path = project / relpath
        path.write_bytes(path.read_bytes() + b"\n\xff\n")
        line = path.read_bytes().count(b"\n")
        self._expect_error(project, f"{relpath}:{line}: not UTF-8 text", capsys)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("int x = 1; String x = null;", "src/A.alite:3: local 'x' redeclared"),
            ("int x = " + "(" * 300 + "1" + ")" * 300 + ";", "src/A.alite: nested too deeply"),
        ],
        ids=["local-redeclared", "deep-nesting"],
    )
    def test_bad_method_body(self, body, message, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "A.alite").write_text(
            f"package p;\nclass A {{\n  void f() {{ {body} }}\n}}\n"
        )
        self._expect_error(tmp_path, message, capsys)

    def test_deeply_nested_layout(self, tmp_path, capsys):
        project = self._notepad(tmp_path)
        depth = 3000
        (project / "res" / "layout" / "header.xml").write_text(
            "<LinearLayout>" * depth + "</LinearLayout>" * depth
        )
        self._expect_error(
            project, "res/layout/header.xml: elements nested too deeply", capsys
        )

    def test_missing_directory(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        self._expect_error(missing, f"{missing}: not a project directory", capsys)

    def test_directory_without_code(self, tmp_path, capsys):
        (tmp_path / "res").mkdir()
        self._expect_error(
            tmp_path, f"{tmp_path}: no sources under src/ and no classes.smali", capsys
        )

    def test_batch_zero_jobs(self, capsys):
        self._expect_cli_error(["batch", "--jobs", "0"], "jobs must be >= 1 (got 0)", capsys)

    @pytest.mark.parametrize("option", ["--baseline", "--suppress"])
    def test_lint_missing_option_file(self, option, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        self._expect_cli_error(
            ["lint", PROJECT, option, str(missing)],
            f"{missing}: no such {option} file",
            capsys,
        )

    @pytest.mark.parametrize(
        "selection",
        [["--rules", ","], ["--rules", "GUI001", "--disable", "GUI001"]],
        ids=["empty-list", "all-disabled"],
    )
    def test_lint_no_rule_selected(self, selection, capsys):
        self._expect_cli_error(
            ["lint", PROJECT, *selection], "no lint rule selected", capsys
        )

    def test_lint_baseline_not_json(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"schema": \n')
        self._expect_cli_error(
            ["lint", PROJECT, "--baseline", str(baseline)],
            f"{baseline}:2:1: --baseline is not JSON",
            capsys,
        )

    @pytest.mark.parametrize("document", ['{"schema": "other"}', "[]"])
    def test_lint_baseline_wrong_schema(self, document, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(document)
        self._expect_cli_error(
            ["lint", PROJECT, "--baseline", str(baseline)],
            "baseline is not a repro.lint/1 document",
            capsys,
        )
