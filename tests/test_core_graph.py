"""Unit tests for the constraint graph data structure."""

import pytest

from repro.core.graph import RECV, ConstraintGraph, RelKind
from repro.core.nodes import AllocNode, OpArg, OpRecv, Site, VarNode
from repro.ir.program import MethodSig
from repro.platform.api import OpKind, OpSpec

SIG = MethodSig("app.C", "m", 0)


def var(graph, name):
    """Intern local ``name`` of ``SIG``; returns its node."""
    return graph.node_list[graph.var_id(SIG, name)]


def add_flow(graph, src, dst, type_filter=None):
    """:meth:`ConstraintGraph.add_flow_ids` between two interned nodes."""
    return graph.add_flow_ids(graph.id_of(src), graph.id_of(dst), type_filter)


def port(graph, op, slot):
    """The interned receiver (``RECV``) or argument port of op id ``op``."""
    return graph.node_list[graph.port_id(op, slot)]


def views(graph, n):
    """Ids of ``n`` inflated views of one layout."""
    site = Site(SIG, 0, 1)
    return [
        graph.infl_view_id(site, "m", (i,), "android.view.ViewGroup", None) for i in range(n)
    ]


@pytest.fixture()
def graph():
    return ConstraintGraph()


class TestInterning:
    def test_var_interned(self, graph):
        assert graph.var_id(SIG, "x") == graph.var_id(SIG, "x")
        assert graph.var_id(SIG, "x") != graph.var_id(SIG, "y")

    def test_field_interned(self, graph):
        assert graph.field_id("app.C", "f") == graph.field_id("app.C", "f")

    def test_alloc_categories(self, graph):
        site = Site(SIG, 0, 10)
        a = graph.node_list[graph.alloc_id(site, "android.widget.Button", is_view=True)]
        assert a in graph.view_allocs
        assert a not in graph.listener_allocs

    def test_activity_interned(self, graph):
        assert graph.activity_id("app.A") == graph.activity_id("app.A")

    def test_ids_interned(self, graph):
        assert graph.layout_id_id("main", 1) == graph.layout_id_id("main", 1)
        assert graph.view_id_id("ok", 2) == graph.view_id_id("ok", 2)

    def test_op_interned_by_site(self, graph):
        site = Site(SIG, 3, 12)
        spec = OpSpec(OpKind.SETID, arg_index=0)
        op = graph.op_id(OpKind.SETID, site, spec)
        assert graph.op_id(OpKind.SETID, site, spec) == op
        assert graph.op_spec(graph.node_list[op]) is spec

    def test_ports_interned(self, graph):
        op = graph.op_id(OpKind.SETID, Site(SIG, 3, 12), OpSpec(OpKind.SETID, arg_index=0))
        assert port(graph, op, RECV) is port(graph, op, RECV)
        assert port(graph, op, 0) is port(graph, op, 0)
        assert port(graph, op, 1) is not port(graph, op, 0)
        op_node = graph.node_list[op]
        assert OpRecv(op_node) in graph.nodes and OpArg(op_node, 1) in graph.nodes
        assert OpArg(op_node, 2) not in graph.nodes
        assert len(graph.nodes) == 4

    def test_fresh_equal_nodes_found(self, graph):
        x = var(graph, "x")
        site = Site(SIG, 0, 10)
        graph.alloc_id(site, "android.widget.Button", is_view=True)
        assert graph.id_of(VarNode(MethodSig("app.C", "m", 0), "x")) == graph.id_of(x)
        assert AllocNode(Site(SIG, 0, 10), "android.widget.Button") in graph.nodes
        assert AllocNode(site, "android.widget.Button") in graph.view_allocs
        # Same interning key, another class: a different node.
        assert AllocNode(site, "android.widget.TextView") not in graph.nodes
        assert graph.id_of(VarNode(SIG, "y")) is None

    def test_infl_view_interned_by_site_layout_path(self, graph):
        site = Site(SIG, 1, 9)
        a = graph.infl_view_id(site, "main", (), "android.view.View", None)
        b = graph.infl_view_id(site, "main", (), "android.view.View", None)
        c = graph.infl_view_id(site, "main", (0,), "android.view.View", None)
        assert a == b and a != c


class TestFlowEdges:
    def test_add_flow_dedup(self, graph):
        x, y = var(graph, "x"), var(graph, "y")
        assert add_flow(graph, x, y)
        assert not add_flow(graph, x, y)
        assert graph.flow_edge_count() == 1

    def test_flow_filter_stored(self, graph):
        x, y = var(graph, "x"), var(graph, "y")
        add_flow(graph, x, y, type_filter="android.view.View")
        assert graph.flow_filter(x, y) == "android.view.View"
        assert graph.flow_filter(y, x) is None

    def test_succ_pred_consistency(self, graph):
        x, y = var(graph, "x"), var(graph, "y")
        add_flow(graph, x, y)
        assert graph.has_flow(x, y)
        assert not graph.has_flow(y, x)

    def test_duplicate_keeps_first_filter(self, graph):
        x, y = var(graph, "x"), var(graph, "y")
        assert add_flow(graph, x, y, type_filter="android.view.View")
        assert not add_flow(graph, x, y, type_filter="android.widget.Button")
        assert not add_flow(graph, x, y)
        assert graph.flow_filter(x, y) == "android.view.View"
        assert graph.flow_edge_count() == 1
        assert list(graph.flow_edges()) == [(x, y)]


class TestBuiltGraph:
    """The flow-edge queries agree, and every edge endpoint is an
    interned node, on a real app before and after solving."""

    @pytest.fixture(scope="class")
    def analysis(self):
        from repro.core.analysis import GuiReferenceAnalysis
        from repro.corpus.connectbot import build_connectbot_example

        return GuiReferenceAnalysis(build_connectbot_example())

    @staticmethod
    def _endpoints_interned(graph):
        edges = list(graph.flow_edges())
        for kind in RelKind:
            edges.extend(graph.rel_edges(kind))
        return all(src in graph.nodes and dst in graph.nodes for src, dst in edges)

    def test_flow_queries_agree(self, analysis):
        graph = analysis.graph
        edges = list(graph.flow_edges())
        assert len(edges) == len(set(edges)) == graph.flow_edge_count()
        assert all(graph.has_flow(src, dst) for src, dst in edges)
        filtered = [e for e in edges if graph.flow_filter(*e) is not None]
        assert filtered  # connectbot casts its find-view results
        assert graph.summary()["flow_edges"] == len(edges)

    def test_endpoints_interned_after_build_and_solve(self, analysis):
        assert self._endpoints_interned(analysis.graph)
        nodes, flows = len(analysis.graph.nodes), analysis.graph.flow_edge_count()
        analysis.solve()
        assert analysis.graph.flow_edge_count() > flows
        assert any(analysis.graph.rel_edges(RelKind.CHILD))
        assert len(analysis.graph.nodes) > nodes
        assert self._endpoints_interned(analysis.graph)


class TestRelEdges:
    def test_add_rel_dedup(self, graph):
        v1 = graph.activity_id("app.A")
        v2 = graph.var_id(SIG, "x")
        assert graph.add_rel(RelKind.ROOT, v1, v2)
        assert not graph.add_rel(RelKind.ROOT, v1, v2)
        assert graph.rel_edge_count(RelKind.ROOT) == 1

    def test_forward_backward(self, graph):
        p, c = views(graph, 2)
        graph.add_rel(RelKind.CHILD, p, c)
        assert graph.rel_view(RelKind.CHILD, p) == {c}
        assert graph.rel_back_view(RelKind.CHILD, c) == {p}
        # The node-facing read decodes the same edge.
        nodes = graph.node_list
        assert graph.children_of(nodes[p]) == {nodes[c]}

    def test_descendants_reflexive_transitive(self, graph):
        a, b, c = views(graph, 3)
        graph.add_rel(RelKind.CHILD, a, b)
        graph.add_rel(RelKind.CHILD, b, c)
        nodes = graph.node_list
        assert graph.descendants_of(nodes[a]) == {nodes[a], nodes[b], nodes[c]}
        assert graph.descendants_of(nodes[a], include_self=False) == {nodes[b], nodes[c]}
        assert c in graph.descendants_cached(a)
        assert a not in graph.descendants_cached(c)

    def test_descendants_tolerates_cycles(self, graph):
        a, b = views(graph, 2)
        graph.add_rel(RelKind.CHILD, a, b)
        graph.add_rel(RelKind.CHILD, b, a)
        nodes = graph.node_list
        assert graph.descendants_of(nodes[a]) == {nodes[a], nodes[b]}

    def test_summary_counts(self, graph):
        x, y = var(graph, "x"), var(graph, "y")
        add_flow(graph, x, y)
        summary = graph.summary()
        assert summary["flow_edges"] == 1
        assert summary["nodes"] >= 2


class TestHasIdInvertedIndex:
    """rel_back_view(HAS_ID, id) is the id→views inverted index the
    semi-naive FindView rules intersect against."""

    def test_index_tracks_interleaved_add_rel(self, graph):
        ok = graph.view_id_id("ok", 1)
        cancel = graph.view_id_id("cancel", 2)
        v1, v2, v3 = views(graph, 3)
        graph.add_rel(RelKind.HAS_ID, v1, ok)
        assert graph.rel_back_view(RelKind.HAS_ID, ok) == {v1}
        # Interleave other kinds and ids; the index must stay exact.
        graph.add_rel(RelKind.CHILD, v1, v2)
        graph.add_rel(RelKind.HAS_ID, v2, cancel)
        graph.add_rel(RelKind.HAS_ID, v3, ok)
        graph.add_rel(RelKind.LISTENER, v2, v3)
        assert graph.rel_back_view(RelKind.HAS_ID, ok) == {v1, v3}
        assert graph.rel_back_view(RelKind.HAS_ID, cancel) == {v2}
        # Duplicate insertion must not disturb the index.
        assert not graph.add_rel(RelKind.HAS_ID, v1, ok)
        assert graph.rel_back_view(RelKind.HAS_ID, ok) == {v1, v3}

    def test_index_agrees_with_rel_back(self, graph):
        """The backward index holds exactly the sources of the forward
        edges into an id."""
        ok = graph.view_id_id("ok", 1)
        for v in views(graph, 5):
            graph.add_rel(RelKind.HAS_ID, v, ok)
        nodes = graph.node_list
        assert {nodes[v] for v in graph.rel_back_view(RelKind.HAS_ID, ok)} == {
            src for src, dst in graph.rel_edges(RelKind.HAS_ID) if dst == nodes[ok]
        }

    def test_missing_id_is_empty(self, graph):
        assert graph.rel_back_view(RelKind.HAS_ID, graph.view_id_id("x", 9)) == set()


class TestDescendantCache:
    def test_cache_matches_walk(self, graph):
        a, b, c, d = views(graph, 4)
        graph.add_rel(RelKind.CHILD, a, b)
        graph.add_rel(RelKind.CHILD, b, c)
        graph.add_rel(RelKind.CHILD, a, d)
        nodes = graph.node_list
        assert {nodes[v] for v in graph.descendants_cached(a)} == graph.descendants_of(nodes[a])
        assert graph.descendants_cached(c) == {c}

    def test_cache_extends_on_posthoc_deep_insertion(self, graph):
        """A CHILD edge inserted deep in an existing (already cached)
        tree must appear in every cached ancestor closure."""
        a, b, c, d, e = views(graph, 5)
        graph.add_rel(RelKind.CHILD, a, b)
        graph.add_rel(RelKind.CHILD, b, c)
        # Populate caches for every level first.
        for view in (a, b, c):
            graph.descendants_cached(view)
        # Post-hoc: hang a subtree (d -> e built first, then attached).
        graph.add_rel(RelKind.CHILD, d, e)
        graph.descendants_cached(d)
        graph.add_rel(RelKind.CHILD, c, d)
        nodes = graph.node_list
        for view, expected in (
            (a, {a, b, c, d, e}),
            (b, {b, c, d, e}),
            (c, {c, d, e}),
            (d, {d, e}),
        ):
            assert graph.descendants_cached(view) == expected
            assert {nodes[v] for v in graph.descendants_cached(view)} == graph.descendants_of(
                nodes[view]
            )

    def test_cache_extension_tolerates_cycles(self, graph):
        a, b, c = views(graph, 3)
        graph.add_rel(RelKind.CHILD, a, b)
        graph.descendants_cached(a)
        graph.add_rel(RelKind.CHILD, b, c)
        graph.add_rel(RelKind.CHILD, c, a)  # cycle back to the root
        assert graph.descendants_cached(a) == {a, b, c}
        nodes = graph.node_list
        assert {nodes[v] for v in graph.descendants_cached(a)} == graph.descendants_of(nodes[a])

    def test_ancestor_of_uses_cache(self, graph):
        a, b, c = views(graph, 3)
        graph.add_rel(RelKind.CHILD, a, b)
        assert b in graph.descendants_cached(a)
        # Edge added after the cached query must be visible.
        graph.add_rel(RelKind.CHILD, b, c)
        assert c in graph.descendants_cached(a)
        assert b not in graph.descendants_cached(c)

    def test_cache_counters_move(self, graph):
        a, b = views(graph, 2)
        graph.add_rel(RelKind.CHILD, a, b)
        misses0, hits0 = graph.desc_cache_misses, graph.desc_cache_hits
        graph.descendants_cached(a)
        graph.descendants_cached(a)
        assert graph.desc_cache_misses == misses0 + 1
        assert graph.desc_cache_hits == hits0 + 1


class TestRelListener:
    def test_listener_sees_every_new_edge(self, graph):
        seen = []
        graph.rel_listener = lambda kind, src, dst: seen.append((kind, src, dst))
        a = graph.activity_id("app.A")
        x = graph.var_id(SIG, "x")
        graph.add_rel(RelKind.ROOT, a, x)
        graph.add_rel(RelKind.ROOT, a, x)  # duplicate: no notification
        assert seen == [(RelKind.ROOT, a, x)]

    def test_listener_sees_consistent_descendant_cache(self, graph):
        """The CHILD cache extension runs before the notification, so a
        listener reacting to the edge can already query the closure."""
        p, c = views(graph, 2)
        graph.descendants_cached(p)
        observed = []

        def listener(kind, src, dst):
            observed.append(set(graph.descendants_cached(p)))

        graph.rel_listener = listener
        graph.add_rel(RelKind.CHILD, p, c)
        assert observed == [{p, c}]
