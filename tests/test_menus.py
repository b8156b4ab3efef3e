"""Tests for the options-menu extension.

Menu resources inflate through ``MenuInflater.inflate(R.menu.x, menu)``
inside ``onCreateOptionsMenu``; each item is a static abstraction that
flows into ``onOptionsItemSelected`` (and declarative ``android:onClick``
handlers). The interpreter creates the menu, populates it, and selects
every item once.
"""

import pytest

from repro import analyze
from repro.core.nodes import MenuItemNode
from repro.frontend import load_app_from_sources
from repro.platform.api import OpKind
from repro.resources.menu import parse_menu_xml
from repro.resources.xml_parser import LayoutXmlError
from repro.semantics import check_soundness, run_app

SOURCE = """
package app;

import android.app.Activity;
import android.view.Menu;
import android.view.MenuInflater;
import android.view.MenuItem;

class Main extends Activity {
    MenuItem lastSelected;
    MenuItem saved;

    void onCreate() {
        this.setContentView(R.layout.main);
    }

    void onCreateOptionsMenu(Menu menu) {
        MenuInflater inflater = this.getMenuInflater();
        inflater.inflate(R.menu.actions, menu);
    }

    void onOptionsItemSelected(MenuItem item) {
        this.lastSelected = item;
    }

    void onSaveClicked(MenuItem item) {
        this.saved = item;
    }
}
"""

MENU = """
<menu>
  <item android:id="@+id/action_save" android:title="Save"
        android:onClick="onSaveClicked"/>
  <group>
    <item android:id="@+id/action_share" android:title="Share"/>
    <item android:title="About"/>
  </group>
</menu>
"""


@pytest.fixture(scope="module")
def menu_app():
    return load_app_from_sources(
        "m", [SOURCE], {"main": "<LinearLayout/>"}, menus={"actions": MENU}
    )


@pytest.fixture(scope="module")
def menu_result(menu_app):
    return analyze(menu_app)


class TestMenuParsing:
    def test_items_flattened(self):
        menu = parse_menu_xml("m", MENU)
        assert len(menu.items) == 3
        assert menu.items[0].id_name == "action_save"
        assert menu.items[0].on_click == "onSaveClicked"
        assert menu.items[2].id_name is None

    def test_bad_root_rejected(self):
        with pytest.raises(LayoutXmlError, match="<menu> root"):
            parse_menu_xml("m", "<LinearLayout/>")

    def test_unknown_element_rejected(self):
        with pytest.raises(LayoutXmlError, match="unexpected element"):
            parse_menu_xml("m", "<menu><button/></menu>")

    def test_menu_ids_in_rtable(self, menu_app):
        assert len(menu_app.resources.menu_names()) == 1
        mid = menu_app.resources.menu_id("actions")
        assert menu_app.resources.menu_name_of(mid) == "actions"
        # Item ids registered as R.id entries.
        assert "action_save" in menu_app.resources.view_id_names()


class TestStaticMenus:
    def test_menu_inflate_op(self, menu_result):
        assert len(menu_result.ops_of_kind(OpKind.MENU_INFLATE)) == 1

    def test_items_created(self, menu_result):
        items = menu_result.menu_items_of("app.Main")
        assert len(items) == 3
        assert {i.id_name for i in items} == {"action_save", "action_share", None}

    def test_items_flow_to_selected_handler(self, menu_result):
        values = menu_result.values_at_var("app.Main", "onOptionsItemSelected", 1, "item")
        items = {v for v in values if isinstance(v, MenuItemNode)}
        assert len(items) == 3

    def test_xml_onclick_item_flow(self, menu_result):
        values = menu_result.values_at_var("app.Main", "onSaveClicked", 1, "item")
        items = {v for v in values if isinstance(v, MenuItemNode)}
        assert {i.id_name for i in items} == {"action_save"}

    def test_item_id_relationship(self, menu_result):
        item = next(i for i in menu_result.menu_items_of("app.Main")
                    if i.id_name == "action_save")
        ids = {str(i) for i in menu_result.graph.ids_of(item)}
        assert ids == {"R.id.action_save"}


class TestDynamicMenus:
    def test_items_selected(self, menu_app):
        run = run_app(menu_app)
        menu_events = [e for e in run.fired_events if e[2] == "menu_select"]
        # 3 onOptionsItemSelected + 1 xml onClick.
        assert len(menu_events) == 4
        activity = run.activities[0]
        assert activity.fields["lastSelected"] is not None
        assert activity.fields["saved"] is not None
        saved = activity.fields["saved"]
        assert saved.vid == menu_app.resources.view_id("action_save")

    def test_soundness_with_menus(self, menu_app, menu_result):
        run = run_app(menu_app)
        report = check_soundness(menu_result, run.trace)
        assert report.violations == []

    def test_dynamic_selection_within_static(self, menu_app, menu_result):
        """Every dynamically selected item maps to a static item that
        flows into the handler's parameter."""
        from repro.semantics.trace import tag_to_value

        run = run_app(menu_app)
        static_items = set(
            v for v in menu_result.values_at_var(
                "app.Main", "onOptionsItemSelected", 1, "item")
            if isinstance(v, MenuItemNode)
        )
        selected = run.activities[0].fields["lastSelected"]
        mapped = tag_to_value(menu_result, selected.tag)
        assert mapped in static_items


class TestDexRoundTrip:
    def test_menu_const_survives(self, menu_app):
        from repro.app import AndroidApp
        from repro.dex import assemble_program, parse_dex_text

        program2 = parse_dex_text(assemble_program(menu_app.program))
        app2 = AndroidApp("rt", program2, menu_app.resources, menu_app.manifest)
        result = analyze(app2)
        assert len(result.menu_items_of("app.Main")) == 3
