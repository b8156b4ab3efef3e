"""Unit tests for layout trees, XML parsing, the R table, the manifest."""

import pytest

from repro.resources.layout import LayoutNode, LayoutTree
from repro.resources.manifest import Manifest, parse_manifest_xml
from repro.resources.rtable import LAYOUT_ID_BASE, VIEW_ID_BASE, ResourceTable
from repro.resources.xml_parser import (
    MAX_EXPANDED_VIEWS,
    LayoutXmlError,
    expand_includes,
    parse_layout_xml,
)


def _simple_tree(name="main"):
    root = LayoutNode("android.widget.LinearLayout", id_name="root")
    root.add_child(LayoutNode("android.widget.Button", id_name="ok"))
    root.add_child(LayoutNode("android.widget.TextView"))
    return LayoutTree(name, root)


class TestLayoutTree:
    def test_walk_preorder(self):
        tree = _simple_tree()
        classes = [n.view_class for n, _ in tree.root.walk()]
        assert classes[0] == "android.widget.LinearLayout"
        assert len(classes) == 3

    def test_size(self):
        assert _simple_tree().size() == 3

    def test_id_names(self):
        assert _simple_tree().id_names() == ["root", "ok"]

    def test_edges(self):
        edges = _simple_tree().edges()
        assert len(edges) == 2
        assert all(p.view_class == "android.widget.LinearLayout" for p, _c in edges)

    def test_find_by_id(self):
        tree = _simple_tree()
        by_id = {node.id_name: node for node in tree.nodes()}
        assert by_id["ok"].view_class == "android.widget.Button"
        assert by_id.get("missing") is None


class TestXmlParser:
    def test_basic_layout(self):
        tree = parse_layout_xml("main", """
            <LinearLayout android:id="@+id/root">
                <Button android:id="@+id/ok"/>
                <TextView/>
            </LinearLayout>
        """)
        assert tree.root.view_class == "android.widget.LinearLayout"
        assert tree.root.id_name == "root"
        assert tree.root.children[0].id_name == "ok"
        assert tree.root.children[1].id_name is None

    def test_fully_qualified_custom_view(self):
        tree = parse_layout_xml("main", "<com.example.TerminalView/>")
        assert tree.root.view_class == "com.example.TerminalView"

    def test_android_view_short_names(self):
        tree = parse_layout_xml("main", "<View/>")
        assert tree.root.view_class == "android.view.View"

    def test_on_click_attribute(self):
        tree = parse_layout_xml("main", '<Button android:onClick="handleClick"/>')
        assert tree.root.on_click == "handleClick"

    def test_malformed_id_rejected(self):
        with pytest.raises(LayoutXmlError, match="malformed id"):
            parse_layout_xml("main", '<Button android:id="ok"/>')

    def test_bad_xml_rejected(self):
        with pytest.raises(LayoutXmlError, match="XML parse error"):
            parse_layout_xml("main", "<LinearLayout>")

    def test_error_column_ignores_injected_namespace(self):
        # Unbound ``android:`` makes the parser retry with the namespace
        # declared on the root tag; the error column still counts from
        # the text as written, 1-based. expat places a mismatched end
        # tag at its name: "LinearLayout" in "</LinearLayout>" starts at
        # column 52 of this 64-character line (the injected text would
        # put it at 111).
        text = '<LinearLayout android:id="@+id/screen_root"><Foo></LinearLayout>'
        with pytest.raises(LayoutXmlError, match="mismatched tag") as info:
            parse_layout_xml("main", text)
        assert (info.value.line, info.value.column) == (1, 52)
        assert text[51:].startswith("LinearLayout>")

    def test_include_cannot_be_root(self):
        with pytest.raises(LayoutXmlError, match="cannot be the root"):
            parse_layout_xml("main", '<include layout="@layout/other"/>')

    def test_namespaced_attributes(self):
        tree = parse_layout_xml("main", """
            <LinearLayout xmlns:android="http://schemas.android.com/apk/res/android"
                          android:id="@+id/root"/>
        """)
        assert tree.root.id_name == "root"


class TestIncludes:
    def _layouts(self):
        header = parse_layout_xml("header", """
            <LinearLayout android:id="@+id/header_root">
                <TextView android:id="@+id/title"/>
            </LinearLayout>
        """)
        main = parse_layout_xml("main", """
            <LinearLayout>
                <include layout="@layout/header"/>
                <Button android:id="@+id/ok"/>
            </LinearLayout>
        """)
        return {"header": header, "main": main}

    def test_include_expansion(self):
        layouts = self._layouts()
        tree = expand_includes(layouts["main"], layouts.__getitem__)
        first = tree.root.children[0]
        assert first.view_class == "android.widget.LinearLayout"
        assert first.id_name == "header_root"
        assert first.children[0].id_name == "title"

    def test_include_id_override(self):
        layouts = self._layouts()
        main = parse_layout_xml("main2", """
            <LinearLayout>
                <include layout="@layout/header" android:id="@+id/renamed"/>
            </LinearLayout>
        """)
        tree = expand_includes(main, layouts.__getitem__)
        assert tree.root.children[0].id_name == "renamed"

    def test_merge_splicing(self):
        merged = parse_layout_xml("buttons", """
            <merge>
                <Button android:id="@+id/a"/>
                <Button android:id="@+id/b"/>
            </merge>
        """)
        main = parse_layout_xml("main", """
            <LinearLayout>
                <include layout="@layout/buttons"/>
            </LinearLayout>
        """)
        tree = expand_includes(main, {"buttons": merged}.__getitem__)
        assert [c.id_name for c in tree.root.children] == ["a", "b"]

    def test_root_merge_becomes_frame_layout(self):
        merged = parse_layout_xml("frag", "<merge><TextView/></merge>")
        tree = expand_includes(merged, {}.__getitem__)
        assert tree.root.view_class == "android.widget.FrameLayout"
        assert len(tree.root.children) == 1

    def test_include_cycle_detected(self):
        a = parse_layout_xml("a", '<LinearLayout><include layout="@layout/b"/></LinearLayout>')
        b = parse_layout_xml("b", '<LinearLayout><include layout="@layout/a"/></LinearLayout>')
        with pytest.raises(LayoutXmlError, match="cycle"):
            expand_includes(a, {"a": a, "b": b}.__getitem__)

    def test_unknown_include_reported(self):
        main = parse_layout_xml("main", '<LinearLayout><include layout="@layout/ghost"/></LinearLayout>')
        with pytest.raises(LayoutXmlError, match="unknown layout 'ghost'"):
            expand_includes(main, {}.__getitem__)

    def test_expansion_bound(self):
        """A layout may expand to MAX_EXPANDED_VIEWS views, not one more."""
        rows = MAX_EXPANDED_VIEWS // 100
        row = parse_layout_xml("row", "<LinearLayout>" + "<TextView/>" * 99 + "</LinearLayout>")
        include = '<include layout="@layout/row"/>'
        layouts = {"row": row}
        at_bound = parse_layout_xml("rows", "<merge>" + include * rows + "</merge>")
        tree = expand_includes(at_bound, layouts.__getitem__)
        assert tree.size() == MAX_EXPANDED_VIEWS + 1  # plus the merge wrapper
        over = parse_layout_xml(
            "over", "<LinearLayout>" + include * rows + "</LinearLayout>"
        )
        with pytest.raises(
            LayoutXmlError,
            match=f"layout 'over' expands to more than {MAX_EXPANDED_VIEWS} views",
        ):
            expand_includes(over, layouts.__getitem__)

    def test_expansion_does_not_mutate_input(self):
        layouts = self._layouts()
        before = layouts["main"].size()
        expand_includes(layouts["main"], layouts.__getitem__)
        assert layouts["main"].size() == before


class TestResourceTable:
    def test_layout_ids_sequential(self):
        table = ResourceTable()
        assert table.add_layout(_simple_tree("a")) == LAYOUT_ID_BASE
        assert table.add_layout(_simple_tree("b")) == LAYOUT_ID_BASE + 1

    def test_duplicate_layout_rejected(self):
        table = ResourceTable()
        table.add_layout(_simple_tree("a"))
        with pytest.raises(ValueError):
            table.add_layout(_simple_tree("a"))

    def test_view_ids_allocated_on_demand(self):
        table = ResourceTable()
        vid = table.view_id("button")
        assert vid == VIEW_ID_BASE
        assert table.view_id("button") == vid  # stable

    def test_reverse_lookups(self):
        table = ResourceTable()
        lid = table.add_layout(_simple_tree("a"))
        vid = table.view_id("x")
        assert table.layout_name_of(lid) == "a"
        assert table.view_id_name_of(vid) == "x"
        assert table.layout_name_of(12345) is None

    def test_layout_declared_ids_registered(self):
        table = ResourceTable()
        table.add_layout(_simple_tree("a"))
        names = table.view_id_names()
        assert "root" in names and "ok" in names

    def test_counts(self):
        table = ResourceTable()
        table.add_layout(_simple_tree("a"))
        table.view_id("extra")
        assert table.layout_count() == 1
        assert table.view_id_count() == 3  # root, ok, extra

    def test_unknown_layout_raises(self):
        with pytest.raises(KeyError):
            ResourceTable().layout("ghost")

    def test_late_include_registration(self):
        table = ResourceTable()
        main = parse_layout_xml(
            "main", '<LinearLayout><include layout="@layout/late"/></LinearLayout>'
        )
        table.add_layout(main)
        table.add_layout(parse_layout_xml("late", '<Button android:id="@+id/b"/>'))
        tree = table.layout("main")
        assert tree.root.children[0].view_class == "android.widget.Button"


class TestManifest:
    def test_main_activity_prefers_launcher(self):
        m = Manifest(package="app")
        m.add_activity("app.A")
        m.add_activity("app.B", launcher=True)
        assert m.main_activity() == "app.B"

    def test_main_activity_falls_back_to_first(self):
        m = Manifest(package="app")
        m.add_activity("app.A")
        assert m.main_activity() == "app.A"

    def test_empty_manifest(self):
        assert Manifest().main_activity() is None

    def test_parse_manifest_xml(self):
        m = parse_manifest_xml("""
            <manifest package="com.example">
              <application>
                <activity android:name=".Main">
                  <intent-filter>
                    <action android:name="android.intent.action.MAIN"/>
                  </intent-filter>
                </activity>
                <activity android:name="com.example.Settings"/>
              </application>
            </manifest>
        """)
        assert m.package == "com.example"
        assert m.activities == ["com.example.Main", "com.example.Settings"]
        assert m.launcher == "com.example.Main"
