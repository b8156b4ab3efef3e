"""Tests for the bench harness (table/figure regeneration machinery)."""

import pytest

from repro.bench.reporting import render_table
from repro.bench.table1 import format_table1, run_table1
from repro.bench.table2 import format_table2, run_table2
from repro.bench.figures import main_figure3, main_figure4, verify_figure4


class TestReporting:
    def test_render_alignment(self):
        text = render_table(
            ["App", "N"], [["foo", "1"], ["longer", "23"]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "App" in lines[2] and "N" in lines[2]
        # Numeric column right-aligned.
        assert lines[4].endswith(" 1")
        assert lines[5].endswith("23")

    def test_render_without_title(self):
        text = render_table(["A"], [["x"]])
        assert text.splitlines()[0] == "A"


class TestTableHarness:
    def test_table1_subset(self):
        rows = run_table1(["APV", "VuDroid"])
        assert [r.spec.name for r in rows] == ["APV", "VuDroid"]
        assert all(r.matches_spec() for r in rows)
        text = format_table1(rows)
        assert "APV" in text and "VuDroid" in text

    def test_table2_subset(self):
        rows = run_table2(["APV"])
        assert rows[0].metrics.receivers == pytest.approx(1.0)
        drift = rows[0].receivers_drift()
        assert drift is not None and drift < 0.01
        text = format_table2(rows)
        assert "APV" in text

    def test_cli_dispatch(self, capsys):
        from repro.bench.__main__ import main

        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_cli_unknown_target(self, capsys):
        from repro.bench.__main__ import main

        assert main(["nonsense"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: unknown target 'nonsense'"]

    @pytest.mark.parametrize(
        "run, names",
        [
            ("table1", ["NoSuchApp"]),
            ("table2", ["APV", "NoSuchApp"]),
            ("lint", ["NoSuchApp", "APV"]),
        ],
    )
    def test_library_rejects_unknown_app(self, run, names):
        from repro.bench import lintbench
        from repro.bench.table1 import run_table1
        from repro.bench.table2 import run_table2
        from repro.errors import ReproError

        function = {"table1": run_table1, "table2": run_table2, "lint": lintbench.main}
        with pytest.raises(ReproError, match="unknown app 'NoSuchApp'"):
            function[run](names)

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["table1", "NoSuchApp"], "unknown app 'NoSuchApp': not a corpus app name"),
            (["table1", "--bogus", "APV"], "unknown option '--bogus'"),
            (["lint", "NoSuchApp"], "unknown app 'NoSuchApp': not a corpus app name"),
            (["table2", "--json", "APV"], "unknown option '--json'"),
        ],
        ids=["unknown-app", "unknown-flag", "lint-unknown-app", "retired-json-flag"],
    )
    def test_cli_bad_input_exit_2(self, argv, error, capsys):
        from repro.bench.__main__ import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {error}"]


class TestFigureHarness:
    def test_figure3_text(self):
        text = main_figure3()
        assert "Inflate1_19" in text
        assert "R.layout.item_terminal" in text

    def test_figure4_text(self):
        text = main_figure4()
        assert "All relationship edges described in the paper are present." in text

    def test_verify_figure4_empty(self):
        assert verify_figure4() == []
