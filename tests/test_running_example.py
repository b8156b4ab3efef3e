"""Integration tests: the ConnectBot running example vs Figures 3 and 4.

Every assertion here corresponds to a specific claim in the paper's
Sections 2 and 4 about the running example's constraint graph and
solution.
"""

import pytest

from repro.core.graph import RelKind
from repro.core.metrics import compute_graph_stats, compute_precision
from repro.core.nodes import InflViewNode, OpArg, OpRecv
from repro.platform.api import OpKind

CA = "connectbot.ConsoleActivity"
EL = "connectbot.EscapeButtonListener"


def _infl(result, name):
    matches = [v for v in result.graph.infl_view_nodes() if str(v) == name]
    assert matches, f"no inflated view named {name}"
    return matches[0]


def _op(result, kind, line):
    matches = [op for op in result.graph.ops()
               if op.kind is kind and op.site.line == line]
    assert matches, f"no {kind} op at line {line}"
    return matches[0]


class TestConstraintGraphShape:
    """Figure 3: nodes and statement-derived edges."""

    def test_operation_nodes_present(self, connectbot_result):
        r = connectbot_result
        assert _op(r, OpKind.INFLATE2, 9)
        assert _op(r, OpKind.FINDVIEW2, 10)
        assert _op(r, OpKind.FINDVIEW2, 13)
        assert _op(r, OpKind.SETLISTENER, 16)
        assert _op(r, OpKind.INFLATE1, 19)
        assert _op(r, OpKind.SETID, 22)
        assert _op(r, OpKind.ADDVIEW2, 23)
        assert _op(r, OpKind.ADDVIEW2, 25)
        assert _op(r, OpKind.FINDVIEW3, 5)
        assert _op(r, OpKind.FINDVIEW1, 6)

    def test_id_nodes_present(self, connectbot_result):
        g = connectbot_result.graph
        assert g.lookup_layout_id("act_console") is not None
        assert g.lookup_layout_id("item_terminal") is not None
        for vid in ("console_flip", "keyboard_group", "button_esc",
                    "terminal_overlay"):
            assert vid in {n.name for n in g.view_id_nodes()}, vid

    def test_activity_node_flows_to_callback_this(self, connectbot_result):
        r = connectbot_result
        this_vals = r.values_at_var(CA, "onCreate", 0, "this")
        assert {getattr(v, "class_name", None) for v in this_vals} == {CA}

    def test_view_id_flows_to_findview1_via_param(self, connectbot_result):
        # "console_flip flows to operation node FindView_6 via variable a"
        r = connectbot_result
        op = _op(r, OpKind.FINDVIEW1, 6)
        ids = {str(v) for v in r.values_at(OpArg(op, 0))}
        assert "R.id.console_flip" in ids


class TestFigure4Relationships:
    """Figure 4: view nodes and the five relationship-edge families."""

    def test_six_inflated_views(self, connectbot_result):
        assert len(connectbot_result.graph.infl_view_nodes()) == 6

    def test_activity_root_edge(self, connectbot_result):
        # "at Inflate9 an edge ConsoleActivity => RelativeLayout_9.1"
        roots = connectbot_result.roots_of_activity(CA)
        assert {str(v) for v in roots} == {"RelativeLayout_9.1"}

    def test_layout_parent_child_edges(self, connectbot_result):
        r = connectbot_result
        root = _infl(r, "RelativeLayout_9.1")
        kids = {str(v) for v in r.graph.children_of(root)}
        assert kids == {"ViewFlipper_9.1.1", "RelativeLayout_9.1.2"}
        kg = _infl(r, "RelativeLayout_9.1.2")
        assert {str(v) for v in r.graph.children_of(kg)} == {"ImageView_9.1.2.1"}

    def test_dynamic_parent_child_edges(self, connectbot_result):
        r = connectbot_result
        # AddView_25: flipper => inflated item_terminal root.
        flipper = _infl(r, "ViewFlipper_9.1.1")
        assert {str(v) for v in r.graph.children_of(flipper)} == {"RelativeLayout_19.1"}
        # AddView_23: "a parent-child edge RelativeLayout_19.1 =>
        # TerminalView_21 is created by the analysis".
        rl19 = _infl(r, "RelativeLayout_19.1")
        kids = {str(v) for v in r.graph.children_of(rl19)}
        assert kids == {"TerminalView_21", "TextView_19.1.1"}

    def test_has_id_edges(self, connectbot_result):
        r = connectbot_result
        expected = {
            "ViewFlipper_9.1.1": {"R.id.console_flip"},
            "RelativeLayout_9.1.2": {"R.id.keyboard_group"},
            "ImageView_9.1.2.1": {"R.id.button_esc"},
            "TextView_19.1.1": {"R.id.terminal_overlay"},
        }
        for name, ids in expected.items():
            view = _infl(r, name)
            assert {str(i) for i in r.graph.ids_of(view)} == ids

    def test_setid_creates_id_edge(self, connectbot_result):
        # "TerminalView_21 => console_flip (shown in Figure 4)"
        r = connectbot_result
        tv = next(v for v in r.graph.view_allocs
                  if v.class_name == "connectbot.TerminalView")
        assert {str(i) for i in r.graph.ids_of(tv)} == {"R.id.console_flip"}

    def test_listener_edge(self, connectbot_result):
        r = connectbot_result
        esc = _infl(r, "ImageView_9.1.2.1")
        listeners = r.listeners_of(esc)
        assert {v.class_name for v in listeners} == {EL}

    def test_inflate_provenance_edges(self, connectbot_result):
        r = connectbot_result
        rl19 = _infl(r, "RelativeLayout_19.1")
        op19 = _op(r, OpKind.INFLATE1, 19)
        assert r.graph.has_rel(RelKind.INFL_ROOT, rl19, op19)
        origin = r.graph.rel(RelKind.LAYOUT_ORIGIN, rl19)
        assert {str(v) for v in origin} == {"R.layout.item_terminal"}

    def test_root_is_ancestor_of_seven_nodes(self, connectbot_result):
        # "the root node RelativeLayout_9.1 is an ancestor of seven nodes"
        r = connectbot_result
        root = _infl(r, "RelativeLayout_9.1")
        assert len(r.graph.descendants_of(root)) == 7


class TestSolution:
    """Section 4.2's walked-through flowsTo facts."""

    def test_imageview_flows_to_g(self, connectbot_result):
        # "the analysis can conclude that ImageView_9.4 flowsTo g"
        g = connectbot_result.views_at_var(CA, "onCreate", 0, "g")
        assert {str(v) for v in g} == {"ImageView_9.1.2.1"}

    def test_imageview_flows_to_setlistener(self, connectbot_result):
        # "Later this is used to determine that the view flows to
        # SetListener_16."
        r = connectbot_result
        op = _op(r, OpKind.SETLISTENER, 16)
        recv = {str(v) for v in r.op_view_receivers(op)}
        assert recv == {"ImageView_9.1.2.1"}

    def test_flipper_flows_to_e(self, connectbot_result):
        e = connectbot_result.views_at_var(CA, "onCreate", 0, "e")
        assert "ViewFlipper_9.1.1" in {str(v) for v in e}

    def test_terminalview_flows_to_setid_and_addview(self, connectbot_result):
        # "TerminalView_21 flows to SetId_22 and AddView_23 via m"
        r = connectbot_result
        setid = _op(r, OpKind.SETID, 22)
        assert {str(v) for v in r.op_view_receivers(setid)} == {"TerminalView_21"}
        addview = _op(r, OpKind.ADDVIEW2, 23)
        assert {str(v) for v in r.op_view_args(addview)} == {"TerminalView_21"}

    def test_relativelayout_flows_to_addview23_as_parent(self, connectbot_result):
        # "RelativeLayout_19.1 flows to this operation in the role of
        # the parent, via k and n."
        r = connectbot_result
        addview = _op(r, OpKind.ADDVIEW2, 23)
        assert {str(v) for v in r.op_view_receivers(addview)} == {"RelativeLayout_19.1"}

    def test_onclick_receives_esc_button(self, connectbot_result):
        # The callback's view parameter receives the ImageView.
        rr = connectbot_result.views_at_var(EL, "onClick", 1, "r")
        assert {str(v) for v in rr} == {"ImageView_9.1.2.1"}

    def test_onclick_resolves_terminal_view(self, connectbot_result):
        # The end-to-end scenario of Section 2: the handler retrieves
        # the TerminalView of the current terminal.
        v = connectbot_result.views_at_var(EL, "onClick", 1, "v")
        assert {str(x) for x in v} == {"TerminalView_21"}

    def test_helper_getcurrentview_children_only(self, connectbot_result):
        # getCurrentView() at line 5 returns children of the flipper,
        # i.e. the inflated item_terminal root — not deeper descendants.
        c = connectbot_result.views_at_var(CA, "findCurrentView", 1, "c")
        assert {str(x) for x in c} == {"RelativeLayout_19.1"}

    def test_gui_tuple_extraction(self, connectbot_result):
        tuples = connectbot_result.gui_tuples()
        assert len(tuples) == 1
        t = next(iter(tuples))
        assert t.activity_class == CA
        assert str(t.view) == "ImageView_9.1.2.1"
        assert str(t.handler) == f"{EL}.onClick/1"


class TestExampleMetrics:
    def test_perfect_receiver_precision(self, connectbot_result):
        # The paper reports receivers = 1.00 for ConnectBot.
        metrics = compute_precision(connectbot_result)
        assert metrics.receivers == pytest.approx(1.0)
        assert metrics.listeners == pytest.approx(1.0)

    def test_graph_stats(self, connectbot_result):
        stats = compute_graph_stats(connectbot_result)
        assert stats.classes == 4
        assert stats.layout_ids == 2
        assert stats.view_ids == 4
        assert stats.views_inflated == 6
        assert stats.views_allocated == 1  # the TerminalView
        assert stats.listeners == 1
        assert stats.ops_inflate == 2
        assert stats.ops_findview == 4
        assert stats.ops_addview == 2
        assert stats.ops_setid == 1
        assert stats.ops_setlistener == 1

    def test_fast_convergence(self, connectbot_result):
        assert connectbot_result.rounds <= 6
        assert connectbot_result.solve_seconds < 1.0
