"""Property-based tests (hypothesis) on core invariants.

The heavyweight property is end-to-end soundness: for *random* ALite
apps (random layout trees plus random sequences of GUI operations over
a variable pool), the static solution must contain every fact the
concrete interpreter observes, and the solver must reach a fixed point.
"""

import string

from hypothesis import given, settings, strategies as st

from repro import analyze
from repro.app import AndroidApp
from repro.core.analysis import AnalysisOptions
from repro.core.diff import solution_fingerprint
from repro.core.graph import RelKind
from repro.core.nodes import InflViewNode, OpArg, OpRecv, ViewIdNode
from repro.corpus.generator import plan_multiplicities
from repro.dex.descriptors import (
    descriptor_to_type,
    join_method_descriptor,
    split_method_descriptor,
    type_to_descriptor,
)
from repro.ir.builder import ProgramBuilder
from repro.ir.program import Clazz, Method, Program
from repro.ir.statements import ConstString, Return
from repro.platform.api import OpKind
from repro.resources.layout import LayoutNode, LayoutTree
from repro.resources.manifest import Manifest
from repro.resources.rtable import ResourceTable
from repro.semantics import check_soundness, run_app

from conftest import node_fingerprint

VIEW = "android.view.View"
ACTIVITY = "app.MainActivity"

# -- strategies ----------------------------------------------------------------

_id_names = st.sampled_from([f"id{i}" for i in range(6)])
_widget_classes = st.sampled_from(
    [
        "android.widget.Button",
        "android.widget.TextView",
        "android.widget.ImageView",
        "android.widget.FrameLayout",
        "android.widget.LinearLayout",
    ]
)


@st.composite
def layout_trees(draw, max_depth=3, max_children=3):
    def node(depth):
        view_class = draw(_widget_classes)
        id_name = draw(st.one_of(st.none(), _id_names))
        n = LayoutNode(view_class, id_name=id_name)
        if depth < max_depth and "Layout" in view_class:
            for _ in range(draw(st.integers(0, max_children))):
                n.add_child(node(depth + 1))
        return n

    root = LayoutNode("android.widget.LinearLayout", id_name=draw(st.one_of(st.none(), _id_names)))
    for _ in range(draw(st.integers(0, max_children))):
        root.add_child(node(1))
    return LayoutTree("main", root)


# Abstract "actions" for random onCreate bodies. Each action consumes /
# produces view variables from a rolling pool.
_actions = st.lists(
    st.tuples(
        st.sampled_from(["find", "find_act", "new_view", "setid", "addview",
                         "listen", "assign", "current"]),
        st.integers(0, 5),  # id selector
        st.integers(0, 7),  # var selector a
        st.integers(0, 7),  # var selector b
    ),
    min_size=1,
    max_size=12,
)


def _build_random_app(tree: LayoutTree, actions) -> AndroidApp:
    pb = ProgramBuilder()
    with pb.clazz("app.Handler", implements=["android.view.View$OnClickListener"]) as c:
        with c.method("onClick", params=[("v", VIEW)]) as m:
            m.ret()
    with pb.clazz(ACTIVITY, extends="android.app.Activity") as c:
        with c.method("onCreate") as m:
            m.invoke(m.this, "setContentView", [m.layout_id("main", line=1)], line=1)
            pool = []
            line = 10
            for kind, id_sel, a_sel, b_sel in actions:
                id_name = f"id{id_sel}"
                if kind == "new_view":
                    pool.append(m.new("android.widget.TextView",
                                      lhs=m.fresh(VIEW, hint="nv"), line=line))
                elif kind == "find_act" or not pool:
                    vid = m.view_id(id_name, line=line)
                    pool.append(m.invoke(m.this, "findViewById", [vid],
                                         lhs=m.fresh(VIEW, hint="fa"), line=line))
                elif kind == "find":
                    base = pool[a_sel % len(pool)]
                    vid = m.view_id(id_name, line=line)
                    pool.append(m.invoke(base, "findViewById", [vid],
                                         lhs=m.fresh(VIEW, hint="fv"), line=line))
                elif kind == "setid":
                    vid = m.view_id(id_name, line=line)
                    m.invoke(pool[a_sel % len(pool)], "setId", [vid], line=line)
                elif kind == "addview":
                    parent = pool[a_sel % len(pool)]
                    child = pool[b_sel % len(pool)]
                    vg = m.cast("android.view.ViewGroup", parent,
                                lhs=m.fresh("android.view.ViewGroup", hint="vg"),
                                line=line)
                    m.invoke(vg, "addView", [child], line=line)
                elif kind == "listen":
                    lst = m.new("app.Handler", lhs=m.fresh("app.Handler", hint="h"),
                                line=line)
                    m.invoke(pool[a_sel % len(pool)], "setOnClickListener", [lst],
                             line=line)
                elif kind == "assign":
                    m.assign(pool[a_sel % len(pool)], pool[b_sel % len(pool)],
                             line=line)
                elif kind == "current":
                    base = pool[a_sel % len(pool)]
                    flip = m.cast("android.widget.ViewFlipper", base,
                                  lhs=m.fresh("android.widget.ViewFlipper", hint="fl"),
                                  line=line)
                    pool.append(m.invoke(flip, "getCurrentView", [],
                                         lhs=m.fresh(VIEW, hint="cv"), line=line))
                line += 1
            m.ret()
    resources = ResourceTable()
    resources.add_layout(tree)
    for i in range(6):
        resources.view_id(f"id{i}")
    resources.freeze_ids()
    manifest = Manifest(package="app")
    manifest.add_activity(ACTIVITY, launcher=True)
    return AndroidApp("random", pb.build(), resources, manifest)


# -- properties -------------------------------------------------------------------


class TestSoundnessProperty:
    @settings(max_examples=40, deadline=None)
    @given(tree=layout_trees(), actions=_actions, seed=st.integers(0, 3))
    def test_static_overapproximates_dynamic(self, tree, actions, seed):
        app = _build_random_app(tree, actions)
        result = analyze(app)
        run = run_app(app, seed=seed)
        report = check_soundness(result, run.trace)
        assert report.violations == []

    @settings(max_examples=25, deadline=None)
    @given(tree=layout_trees(), actions=_actions)
    def test_solver_converges(self, tree, actions):
        app = _build_random_app(tree, actions)
        result = analyze(app)
        assert result.rounds < 50


class TestSolverOracleProperty:
    @settings(max_examples=40, deadline=None)
    @given(tree=layout_trees(), actions=_actions)
    def test_naive_schedule_gives_identical_fingerprint(self, tree, actions):
        app = _build_random_app(tree, actions)
        naive = analyze(app, AnalysisOptions(solver="naive"))
        semi = analyze(app)
        assert solution_fingerprint(naive) == solution_fingerprint(semi)

    @settings(max_examples=40, deadline=None)
    @given(tree=layout_trees(), actions=_actions)
    def test_fingerprint_matches_node_by_node_reading(self, tree, actions):
        result = analyze(_build_random_app(tree, actions))
        assert solution_fingerprint(result) == node_fingerprint(result)

    @settings(max_examples=40, deadline=None)
    @given(tree=layout_trees(), actions=_actions)
    def test_findview_results_match_plain_scan(self, tree, actions):
        """Each FindView1/FindView2 result set equals a scan of the
        solved graph: the reflexive descendants of the receiver's views
        (FindView2: of its ROOT children) whose ids meet the requested
        ones."""
        app = _build_random_app(tree, actions)
        result = analyze(app)
        graph = result.graph
        for op in graph.ops():
            receivers = result.pts.get(OpRecv(op), set())
            if op.kind is OpKind.FINDVIEW1:
                starts = {
                    v for v in receivers
                    if isinstance(v, InflViewNode) or v in graph.view_allocs
                }
            elif op.kind is OpKind.FINDVIEW2:
                starts = {r for h in receivers for r in graph.rel(RelKind.ROOT, h)}
            else:
                continue
            ids = {
                v for v in result.pts.get(OpArg(op, 0), set())
                if isinstance(v, ViewIdNode)
            }
            scanned = {
                d for start in starts for d in graph.descendants_of(start)
                if graph.ids_of(d) & ids
            }
            assert result.pts.get(op, set()) == scanned


class TestInflationProperty:
    @settings(max_examples=50, deadline=None)
    @given(tree=layout_trees())
    def test_inflated_node_count_matches_layout(self, tree):
        app = _build_random_app(tree, [("find_act", 0, 0, 0)])
        result = analyze(app)
        assert len(result.graph.infl_view_nodes()) == tree.size()

    @settings(max_examples=50, deadline=None)
    @given(tree=layout_trees())
    def test_dynamic_matches_static_inflation(self, tree):
        app = _build_random_app(tree, [("find_act", 0, 0, 0)])
        run = run_app(app)
        inflated = [o for o in run.heap.objects
                    if type(o.tag).__name__ == "InflTag"]
        assert len(inflated) == tree.size()

    @settings(max_examples=50, deadline=None)
    @given(tree=layout_trees())
    def test_ids_preserved(self, tree):
        app = _build_random_app(tree, [("find_act", 0, 0, 0)])
        result = analyze(app)
        static_ids = sorted(
            v.id_name for v in result.graph.infl_view_nodes() if v.id_name
        )
        assert static_ids == sorted(tree.id_names())


class TestGraphInvariants:
    @settings(max_examples=40, deadline=None)
    @given(tree=layout_trees(), actions=_actions)
    def test_descendants_reflexive_and_closed(self, tree, actions):
        app = _build_random_app(tree, actions)
        result = analyze(app)
        graph = result.graph
        for view in graph.infl_view_nodes():
            descendants = graph.descendants_of(view)
            assert view in descendants
            for d in descendants:
                assert graph.descendants_of(d) <= descendants

    @settings(max_examples=40, deadline=None)
    @given(tree=layout_trees(), actions=_actions)
    def test_pointer_sets_contain_only_values(self, tree, actions):
        from repro.core.nodes import (
            ActivityNode, AllocNode, InflViewNode, LayoutIdNode, ViewIdNode,
        )

        app = _build_random_app(tree, actions)
        result = analyze(app)
        value_types = (ActivityNode, AllocNode, InflViewNode, LayoutIdNode, ViewIdNode)
        for values in result.pts.values():
            assert all(isinstance(v, value_types) for v in values)


class TestDexRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(tree=layout_trees(), actions=_actions)
    def test_random_app_roundtrips_through_dalvik_text(self, tree, actions):
        from repro.dex import assemble_program, parse_dex_text

        app = _build_random_app(tree, actions)
        text = assemble_program(app.program)
        reloaded = AndroidApp("rt", parse_dex_text(text), app.resources, app.manifest)
        r1, r2 = analyze(app), analyze(reloaded)
        # Identical solutions at every operation node.
        ops1 = {str(op.site): sorted(map(str, r1.op_results(op)))
                for op in r1.graph.ops()}
        ops2 = {str(op.site): sorted(map(str, r2.op_results(op)))
                for op in r2.graph.ops()}
        assert ops1 == ops2
        # And re-assembly is a fixpoint.
        assert assemble_program(reloaded.program) == text


class TestDexStringProperty:
    @settings(max_examples=200, deadline=None)
    @given(value=st.text(), line=st.one_of(st.none(), st.integers(0, 10**9)))
    def test_string_constant_roundtrips_through_dalvik_text(self, value, line):
        from repro.corpus.export import parse_dex_text
        from repro.dex import assemble_program

        method = Method("m", "p.A")
        method.add_local("s", "java.lang.String")
        method.append(ConstString("s", value, line=line))
        method.append(Return())
        clazz = Clazz("p.A")
        clazz.add_method(method)
        program = Program()
        program.add_class(clazz)
        reloaded = parse_dex_text(assemble_program(program))
        stmt = reloaded.clazz("p.A").method("m", 0).body[0]
        assert (type(stmt), stmt.value, stmt.line) == (ConstString, value, line)


class TestPlanProperties:
    @settings(max_examples=100, deadline=None)
    @given(count=st.integers(1, 200), target=st.floats(1.0, 5.0))
    def test_plan_multiplicities_invariants(self, count, target):
        plan = plan_multiplicities(count, target)
        assert len(plan) == count
        assert all(1 <= x <= 9 for x in plan)
        if target * count <= count * 9:
            assert abs(sum(plan) - round(count * target)) <= 0.5 + count * 0


class TestDescriptorProperties:
    _class_names = st.lists(
        st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
        min_size=1,
        max_size=4,
    ).map(lambda parts: ".".join(parts))

    @settings(max_examples=100)
    @given(name=_class_names)
    def test_type_roundtrip(self, name):
        assert descriptor_to_type(type_to_descriptor(name)) == name

    @settings(max_examples=60)
    @given(
        params=st.lists(
            st.sampled_from(["int", "boolean", "java.lang.Object", "a.B"]),
            max_size=5,
        ),
        ret=st.sampled_from(["void", "int", "android.view.View"]),
    )
    def test_method_descriptor_roundtrip(self, params, ret):
        descriptor = join_method_descriptor(params, ret)
        parsed_params, parsed_ret = split_method_descriptor(descriptor)
        assert parsed_params == params
        assert parsed_ret == ret
