"""Tests for the AnalysisResult query API and the metrics module."""

import os

import pytest

from repro import analyze
from repro.clients.gui_model import build_gui_model
from repro.core.metrics import compute_graph_stats, compute_precision
from repro.core.nodes import OpArg, OpRecv
from repro.frontend import load_app_from_dir
from repro.platform.api import OpKind
from repro.platform.events import EventKind
from repro.semantics.trace import tag_to_value
from repro.semantics.values import ActivityTag

from conftest import make_single_activity_app

ACTIVITY = "app.MainActivity"
NOTEPAD = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "examples", "projects", "notepad")
)


class TestValueQueries:
    def test_values_at_unknown_var_empty(self, connectbot_result):
        assert connectbot_result.values_at_var("no.Class", "m", 0, "x") == set()

    def test_views_at_var_filters_ids(self, connectbot_result):
        # Variable holding a view id has values, but no *views*.
        values = connectbot_result.values_at_var(
            "connectbot.ConsoleActivity", "onCreate", 0, "t1"
        )
        views = connectbot_result.views_at_var(
            "connectbot.ConsoleActivity", "onCreate", 0, "t1"
        )
        assert values and not views

    def test_is_view_value(self, connectbot_result):
        infl = connectbot_result.graph.infl_view_nodes()[0]
        assert connectbot_result.is_view_value(infl)
        act = connectbot_result.graph.activities()[0]
        assert not connectbot_result.is_view_value(act)


class TestOpQueries:
    def test_ops_of_kind(self, connectbot_result):
        findviews = connectbot_result.ops_of_kind(
            OpKind.FINDVIEW1, OpKind.FINDVIEW2, OpKind.FINDVIEW3
        )
        assert len(findviews) == 4

    def test_receiver_and_arg_ports(self, connectbot_result):
        setid = connectbot_result.ops_of_kind(OpKind.SETID)[0]
        assert {str(v) for v in connectbot_result.op_view_receivers(setid)} == {
            "TerminalView_21"
        }
        args = connectbot_result.op_args(setid)
        assert {str(v) for v in args} == {"R.id.console_flip"}

    def test_listener_args_filtered_by_family(self, connectbot_result):
        sl = connectbot_result.ops_of_kind(OpKind.SETLISTENER)[0]
        listeners = connectbot_result.op_listener_args(sl)
        assert {v.class_name for v in listeners} == {
            "connectbot.EscapeButtonListener"
        }


class TestStructuralQueries:
    def test_activity_views(self, connectbot_result):
        views = connectbot_result.activity_views("connectbot.ConsoleActivity")
        assert len(views) == 7

    def test_handlers_for_view(self, connectbot_result):
        esc = next(
            v for v in connectbot_result.graph.infl_view_nodes()
            if str(v) == "ImageView_9.1.2.1"
        )
        handlers = connectbot_result.handlers_for_view(esc)
        assert handlers == [
            (EventKind.CLICK,
             __import__("repro.ir.program", fromlist=["MethodSig"]).MethodSig(
                 "connectbot.EscapeButtonListener", "onClick", 1)),
        ]

    def test_hierarchy_dump_stable(self, connectbot_result):
        dump1 = connectbot_result.hierarchy_dump("connectbot.ConsoleActivity")
        dump2 = connectbot_result.hierarchy_dump("connectbot.ConsoleActivity")
        assert dump1 == dump2
        assert "TerminalView_21 [R.id.console_flip]" in dump1


class TestQueriesAddNoNodes:
    """Queries on a solved result read the graph; an unknown activity
    must not become a node (and then a phantom GUI-model activity)."""

    UNKNOWN = "com.example.notepad.Nope"

    @pytest.fixture()
    def notepad_result(self):
        app = load_app_from_dir(NOTEPAD)
        app.validate()
        return analyze(app)

    def test_unknown_activity_queries(self, notepad_result):
        nodes = len(notepad_result.graph.node_list)
        assert notepad_result.hierarchy_dump(self.UNKNOWN) == self.UNKNOWN
        assert notepad_result.activity_views(self.UNKNOWN) == set()
        assert notepad_result.roots_of_activity(self.UNKNOWN) == set()
        assert len(notepad_result.graph.node_list) == nodes
        activities = build_gui_model(notepad_result).activities
        assert self.UNKNOWN not in activities
        assert "com.example.notepad.NotesListActivity" in activities

    def test_unknown_activity_tag(self, notepad_result):
        nodes = len(notepad_result.graph.node_list)
        assert tag_to_value(notepad_result, ActivityTag(self.UNKNOWN)) is None
        assert len(notepad_result.graph.node_list) == nodes
        known = tag_to_value(
            notepad_result, ActivityTag("com.example.notepad.NotesListActivity")
        )
        assert known is not None and known.class_name.endswith("NotesListActivity")


class TestMetricsEdgeCases:
    def test_empty_population_gives_none(self):
        # App with no addview ops -> parameters is None.
        app = make_single_activity_app()
        metrics = compute_precision(analyze(app))
        assert metrics.parameters is None
        assert metrics.receivers is None  # no view-receiver ops at all

    def test_precision_row_formatting(self):
        app = make_single_activity_app()
        metrics = compute_precision(analyze(app))
        row = metrics.as_row()
        assert row[2] == "-" and row[3] == "-"

    def test_graph_stats_row(self, connectbot_result):
        stats = compute_graph_stats(connectbot_result)
        row = stats.as_row()
        assert row[0] == "ConnectBot-example"
        assert row[3] == "2/4"  # ids L/V
        assert row[4] == "6/1"  # views I/A

    @staticmethod
    def _listeners_per_view_pair(result):
        """The Table 2 "listeners" measurement read literally: listener
        objects per (set-listener operation, receiver view) pair, rather
        than per operation as ``compute_precision`` reports it."""
        sizes = []
        for op in result.ops_of_kind(OpKind.SETLISTENER):
            listeners = len(result.op_listener_args(op))
            if listeners:
                sizes.extend(listeners for _view in result.op_view_receivers(op))
        return sum(sizes) / len(sizes) if sizes else None

    def test_listeners_per_view_pair_variant(self, connectbot_result):
        # Singleton receiver sets: both readings coincide at 1.0.
        assert self._listeners_per_view_pair(connectbot_result) == pytest.approx(1.0)
        metrics = compute_precision(connectbot_result)
        assert metrics.listeners == pytest.approx(1.0)

    def test_listeners_per_view_pair_empty(self):
        app = make_single_activity_app()
        assert self._listeners_per_view_pair(analyze(app)) is None

    def test_restricted_population(self, connectbot_result):
        setid_ops = connectbot_result.ops_of_kind(OpKind.SETID)
        metrics = compute_precision(connectbot_result, ops=setid_ops)
        assert metrics.receivers == pytest.approx(1.0)
        assert metrics.results is None  # no findview in population
