"""Tests for on-disk export/import of whole applications."""

import os

import pytest

from repro import analyze
from repro.core.metrics import compute_graph_stats, compute_precision
from repro.corpus.apps import spec_by_name
from repro.corpus.connectbot import build_connectbot_example
from repro.corpus.export import dump_app, load_dumped_app
from repro.corpus.generator import generate_app
from repro.resources.serialize import layout_to_xml, manifest_to_xml, menu_to_xml
from repro.resources.xml_parser import parse_layout_xml


class TestSerialization:
    def test_layout_roundtrip(self):
        xml = ('<LinearLayout android:id="@+id/root">'
               '<Button android:id="@+id/ok" android:onClick="go"/>'
               "<TextView/></LinearLayout>")
        tree = parse_layout_xml("t", xml)
        rendered = layout_to_xml(tree)
        reparsed = parse_layout_xml("t", rendered)
        assert layout_to_xml(reparsed) == rendered
        assert reparsed.root.children[0].on_click == "go"

    def test_custom_view_class_fully_qualified(self):
        tree = parse_layout_xml("t", "<com.example.TerminalView/>")
        assert "<com.example.TerminalView/>" in layout_to_xml(tree)

    def test_menu_roundtrip(self):
        from repro.resources.menu import parse_menu_xml

        menu = parse_menu_xml(
            "m",
            '<menu><item android:id="@+id/a" android:title="A"/>'
            "<item/></menu>",
        )
        rendered = menu_to_xml(menu)
        reparsed = parse_menu_xml("m", rendered)
        assert menu_to_xml(reparsed) == rendered

    def test_manifest_rendering(self):
        from repro.resources.manifest import Manifest, parse_manifest_xml

        manifest = Manifest(package="p")
        manifest.add_activity("p.Main", launcher=True)
        manifest.add_activity("p.Other")
        reparsed = parse_manifest_xml(manifest_to_xml(manifest))
        assert reparsed.activities == ["p.Main", "p.Other"]
        assert reparsed.launcher == "p.Main"


class TestDumpLoad:
    def test_connectbot_roundtrip(self, tmp_path):
        app = build_connectbot_example()
        dump_app(app, str(tmp_path))
        assert os.path.isfile(tmp_path / "classes.smali")
        reloaded = load_dumped_app(str(tmp_path))
        r1, r2 = analyze(app), analyze(reloaded)
        assert compute_graph_stats(r1).as_row()[1:] == compute_graph_stats(r2).as_row()[1:]
        assert compute_precision(r1).as_row()[2:] == compute_precision(r2).as_row()[2:]

    def test_generated_app_roundtrip(self, tmp_path):
        app = generate_app(spec_by_name("VuDroid"))
        dump_app(app, str(tmp_path))
        reloaded = load_dumped_app(str(tmp_path))
        r1, r2 = analyze(app), analyze(reloaded)
        assert compute_graph_stats(r1).as_row()[1:] == compute_graph_stats(r2).as_row()[1:]
        assert compute_precision(r1).as_row()[2:] == compute_precision(r2).as_row()[2:]

    def test_standalone_ids_preserved(self, tmp_path):
        # Astrid registers many standalone R.id entries (ids.xml path).
        app = generate_app(spec_by_name("SuperGenPass"))
        dump_app(app, str(tmp_path))
        reloaded = load_dumped_app(str(tmp_path))
        assert (
            reloaded.resources.view_id_count() == app.resources.view_id_count()
        )

    def test_dump_without_manifest_gets_default_manifest(self, tmp_path):
        from repro.runner.tasks import fingerprint_hash

        app = generate_app(spec_by_name("APV"))
        dump_app(app, str(tmp_path))
        with_manifest = load_dumped_app(str(tmp_path), name="apv")
        os.remove(tmp_path / "AndroidManifest.xml")
        without = load_dumped_app(str(tmp_path), name="apv")
        assert without.manifest.activities == with_manifest.manifest.activities
        assert without.manifest.launcher == with_manifest.manifest.launcher
        assert fingerprint_hash(analyze(without)) == fingerprint_hash(
            analyze(with_manifest)
        )

    def test_frontend_loader_picks_up_smali(self, tmp_path):
        from repro.frontend import load_app_from_dir

        app = build_connectbot_example()
        dump_app(app, str(tmp_path))
        reloaded = load_app_from_dir(str(tmp_path), name="rt")
        result = analyze(reloaded)
        views = result.views_at_var(
            "connectbot.EscapeButtonListener", "onClick", 1, "v"
        )
        assert {str(v) for v in views} == {"TerminalView_21"}

    def test_corpus_cli(self, tmp_path, capsys):
        from repro.corpus.__main__ import main

        assert main(["list"]) == 0
        assert "XBMC" in capsys.readouterr().out
        out_dir = str(tmp_path / "apv")
        assert main(["dump", "APV", out_dir]) == 0
        assert os.path.isfile(os.path.join(out_dir, "classes.smali"))
        assert main(["bogus"]) == 2
