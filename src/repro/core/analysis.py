"""The constraint-based fixed-point analysis (Sections 4.2–4.3).

The solver maintains the ``flowsTo`` relation as per-node value sets
(``pts``), propagated along flow edges with a difference-based
worklist, and applies the operation inference rules until a global
fixed point:

* ``Inflate1``/``Inflate2``: reaching layout ids instantiate a fresh
  family of inflated-view nodes per (site, layout), with parent-child
  and view-id relationship edges from the layout tree; the root flows
  out of ``Inflate1`` nodes and becomes an activity root at
  ``Inflate2`` nodes.
* ``AddView1``/``AddView2``: reaching (activity, view) / (parent,
  child) pairs add ROOT / CHILD relationship edges.
* ``SetId``: reaching (view, id) pairs add HAS_ID edges.
* ``SetListener``: reaching (view, listener) pairs add LISTENER edges
  and model the platform callback ``y.n(x)`` — the listener flows to
  the handler's ``this`` and the view flows to the handler's view
  parameter.
* ``FindView1/2/3``: resolved through the (reflexive-transitive)
  ``ancestorOf`` closure over CHILD edges and HAS_ID matching; results
  flow out of the operation node.

New relationship edges can enable more resolution (e.g. an ``AddView2``
edge extends ``ancestorOf`` which grows a ``FindView1`` result set), so
operation processing and flow propagation alternate in rounds until
nothing changes. All facts are finite and monotonically growing, so
termination is guaranteed.

One round loop implements the fixed point; ``AnalysisOptions.solver``
only picks which ops a round evaluates and when the loop stops:

* ``"seminaive"`` (default) — delta-driven scheduling: after a first
  full sweep, an operation rule only re-runs when one of its inputs
  actually changed, and the solve stops when nothing is dirty. Inputs
  are (a) the op's receiver/argument ports (``_add_values`` marks the
  owning op dirty on a delta), (b) the relationship-edge kinds the rule
  read (``_read_rel``/``_read_descendants`` subscribe the op being
  evaluated to the kind, and a ``rel_listener`` on the graph marks the
  subscribers on each new edge), and (c) pointer nodes the rule read
  outside its ports, such as the return variables of
  ``getView``/``onCreateView`` factories (``_depend_on_node``). Every
  rule is monotone in exactly what it read, so skipping an op whose
  inputs are unchanged cannot lose facts.
* ``"naive"`` — the paper's fixed point taken literally: every round
  evaluates every op and re-binds XML handlers, and the solve stops
  after a round that changed nothing. It consults neither the dirty
  set nor the subscriptions, so it is the oracle the differential
  tests hold the scheduler against.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.app import AndroidApp
from repro.core.builder import build_constraint_graph
from repro.core.graph import ConstraintGraph, RelKind
from repro.core.nodes import (
    ActivityNode,
    AllocNode,
    InflViewNode,
    LayoutIdNode,
    MenuIdNode,
    MenuItemNode,
    Node,
    OpArg,
    OpNode,
    OpRecv,
    Site,
    ValueNode,
    VarNode,
    ViewIdNode,
    value_class_name,
)
from repro.core.provenance import (
    RULE_ASSIGN,
    RULE_SEED,
    Fact,
    ProvenanceRecorder,
    edge_fact,
    flow_fact,
    rel_fact,
)
from repro.core.results import AnalysisResult, XmlHandlerBinding
from repro.hierarchy.cha import ClassHierarchy
from repro.obs import names as obs_names
from repro.obs.tracer import Tracer, active as active_tracer
from repro.ir.program import MethodSig
from repro.platform.api import OpKind
from repro.platform.classes import ACTIVITY, DIALOG
from repro.resources.layout import LayoutNode


@dataclass
class AnalysisOptions:
    """Tunable switches of the analysis.

    ``findview3_children_only_refinement`` enables the refinement the
    paper mentions for operations like ``getCurrentView()`` (restrict
    to direct children rather than all descendants).

    ``model_xml_onclick`` binds ``android:onClick`` layout attributes
    to activity methods (an extension beyond the paper's core rules).

    ``max_rounds`` is a safety valve; the fixed point always converges
    long before it on realistic inputs.

    ``solver`` selects the round schedule: ``"seminaive"``
    (delta-driven, the default) or ``"naive"`` (every op every round,
    the test oracle). Both produce identical solutions.

    ``provenance`` (off by default) records, for every derived fact,
    the inference rule and premise facts that first derived it (one
    compact tuple per fact — see :mod:`repro.core.provenance`). It
    works identically under both solver modes, never changes the
    computed solution, and powers witness-path explanations in the
    lint engine (:mod:`repro.lint`).
    """

    findview3_children_only_refinement: bool = True
    model_xml_onclick: bool = True
    filter_casts: bool = True
    max_rounds: int = 1000
    solver: str = "seminaive"
    provenance: bool = False

    def __post_init__(self) -> None:
        if self.solver not in ("naive", "seminaive"):
            raise ValueError(
                f"unknown solver {self.solver!r} (expected 'naive' or 'seminaive')"
            )


class GuiReferenceAnalysis:
    """One analysis run over one :class:`AndroidApp`."""

    def __init__(
        self,
        app: AndroidApp,
        options: Optional[AnalysisOptions] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.app = app
        self.options = options or AnalysisOptions()
        self.tracer = tracer if tracer is not None else active_tracer()
        build = build_constraint_graph(app, tracer=self.tracer)
        self.graph: ConstraintGraph = build.graph
        self.hierarchy: ClassHierarchy = build.hierarchy
        self.pts: Dict[Node, Set[ValueNode]] = {}
        self._inflated: Dict[Tuple[object, str], InflViewNode] = {}
        self._inflated_menus: Set[Tuple[Site, str]] = set()
        self.menu_items_by_class: Dict[str, List[MenuItemNode]] = {}
        self._onclick_names: Dict[InflViewNode, str] = {}
        self._bound_handlers: Set[Tuple[ValueNode, MethodSig]] = set()
        self._bound_xml: Set[Tuple[str, InflViewNode]] = set()
        self.xml_handlers: List[XmlHandlerBinding] = []
        self.rounds = 0
        self.solve_seconds = 0.0
        self.converged = True
        # Lightweight solver-effort stats, maintained unconditionally
        # (plain int bumps — no allocation) so profiling cannot change
        # behaviour and the stats are available without a tracer.
        self.values_added = 0
        self.work_items = 0
        self.ops_scheduled = 0
        self.ops_skipped = 0
        # -- scheduler state -----------------------------------------------
        # Coalescing worklist: accumulated (not-yet-propagated) delta
        # per node plus a FIFO of nodes with a pending delta. Deltas
        # from the seed drain are overwhelmingly singletons; merging
        # them per node before propagating amortises the per-edge
        # traversal cost across the whole batch.
        self._pending: Dict[Node, Set[ValueNode]] = {}
        self._queue: Deque[Node] = deque()
        # Dirty ops in mark order (dict-as-ordered-set for determinism).
        self._dirty: Dict[OpNode, None] = {}
        # Dynamically discovered dependencies: pointer node -> ops that
        # read its points-to set outside their own ports.
        self._node_deps: Dict[Node, Set[OpNode]] = {}
        # Read-tracked subscriptions: relationship-edge kind -> ops
        # whose rule read edges of that kind while being evaluated
        # (``_current_op``); never removed. Stored as dicts so one edge
        # notification marks every subscriber dirty with a single
        # ``dict.update``.
        self._rel_subs: Dict[RelKind, Dict[OpNode, None]] = {
            kind: {} for kind in RelKind
        }
        self._current_op: Optional[OpNode] = None
        self._xml_dirty = False
        # (value class, cast filter) -> bool memo for cast filtering.
        self._cast_cache: Dict[Tuple[str, str], bool] = {}
        self.cast_cache_hits = 0
        self.cast_cache_misses = 0
        # -- provenance sled (opt-in, see core/provenance.py) --------------
        # Every recording site is guarded by ``is not None``, so the
        # disabled path costs one branch; the recorder never feeds back
        # into solving, so solutions are identical with it on or off.
        self._prov: Optional[ProvenanceRecorder] = (
            ProvenanceRecorder() if self.options.provenance else None
        )
        self.graph.provenance = self._prov

    # -- flowsTo maintenance ---------------------------------------------------

    def _add_values(self, node: Node, values: Set[ValueNode]) -> bool:
        current = self.pts.get(node)
        if current is None:
            current = set()
            self.pts[node] = current
        delta = values - current
        if not delta:
            return False
        current |= delta
        self.values_added += len(delta)
        pending = self._pending.get(node)
        if pending is None:
            self._pending[node] = delta
            self._queue.append(node)
        else:
            pending |= delta
        # Delta scheduling: a changed input port dirties its op; a
        # changed node some rule read dynamically dirties that rule.
        if isinstance(node, (OpRecv, OpArg)):
            self._dirty[node.op] = None
        deps = self._node_deps.get(node)
        if deps:
            dirty = self._dirty
            for op in deps:
                dirty[op] = None
        return True

    def _seed(
        self,
        value: ValueNode,
        rule: str = RULE_SEED,
        premises: Tuple[Fact, ...] = (),
    ) -> None:
        if self._prov is not None:
            self._prov.record_flow(value, value, rule, premises)
        self._add_values(value, {value})

    def _add_flow_dynamic(
        self,
        src: Node,
        dst: Node,
        rule: Optional[str] = None,
        premises: Tuple[Fact, ...] = (),
    ) -> bool:
        """Add a flow edge discovered during solving and propagate.

        Only a *new* edge needs an explicit push of the source's
        current points-to set: once the edge exists, every later delta
        on ``src`` (including any still sitting in the worklist) is
        propagated across it by the drain loop, so re-pushing the full
        set would only recompute an empty difference.

        ``rule``/``premises`` record why the edge exists when the
        provenance sled is enabled (edges from program statements are
        axioms; these solver-made edges are derived facts)."""
        if not self.graph.add_flow(src, dst):
            return False
        if self._prov is not None and rule is not None:
            self._prov.record_edge(src, dst, rule, premises)
        existing = self.pts.get(src)
        if existing:
            if self._prov is not None:
                for v in existing:
                    self._prov.record_flow(
                        dst,
                        v,
                        RULE_ASSIGN,
                        (flow_fact(src, v), edge_fact(src, dst)),
                    )
            self._add_values(dst, existing)
        return True

    def _propagate(self) -> bool:
        """Difference propagation of pending deltas along flow edges;
        True when any delta was pending.

        Deltas are coalesced per node before propagating (a node hit by
        many singleton deltas traverses its out-edges once, not once
        per delta), successors come paired with their cast filter (no
        filter-table lookup), filter decisions are memoised per (value
        class, filter), and empty filtered deltas are dropped without
        touching ``pts``."""
        changed = False
        queue = self._queue
        pending = self._pending
        pts = self.pts
        # The graph's adjacency dict is read directly: the method call
        # per popped node is measurable at this volume.
        flow_out = self.graph._flow_out
        filter_casts = self.options.filter_casts
        filter_cached = self._filter_values_cached
        dirty = self._dirty
        node_deps = self._node_deps
        prov = self._prov
        empty: Tuple[Tuple[Node, Optional[str]], ...] = ()
        while queue:
            node = queue.popleft()
            delta = pending.pop(node, None)
            if delta is None:
                # Already propagated by an earlier coalesced pop.
                continue
            changed = True
            self.work_items += 1
            for succ, type_filter in flow_out.get(node, empty):
                # Inlined _add_values: this loop is the solver's hottest
                # path and the call overhead alone is a double-digit
                # share of solve time. Any semantic change here must be
                # mirrored in _add_values.
                if type_filter is not None and filter_casts:
                    values = filter_cached(delta, type_filter)
                    if not values:
                        continue
                else:
                    values = delta
                current = pts.get(succ)
                if current is None:
                    current = pts[succ] = set()
                new = values - current
                if not new:
                    continue
                current |= new
                self.values_added += len(new)
                if prov is not None:
                    for v in new:
                        prov.record_flow(
                            succ,
                            v,
                            RULE_ASSIGN,
                            (flow_fact(node, v), edge_fact(node, succ)),
                        )
                prior = pending.get(succ)
                if prior is None:
                    pending[succ] = new
                    queue.append(succ)
                else:
                    prior |= new
                cls = succ.__class__
                if cls is OpRecv or cls is OpArg:
                    dirty[succ.op] = None
                deps = node_deps.get(succ)
                if deps:
                    for op in deps:
                        dirty[op] = None
        return changed

    def _filter_values_cached(
        self, values: Set[ValueNode], type_filter: str
    ) -> Set[ValueNode]:
        """The values that pass an edge's cast filter, with the subtype
        decision memoised per (value class, filter). Values without a
        run-time class (layout/view ids) pass through; reference casts
        only constrain abstract objects."""
        cache = self._cast_cache
        kept: Set[ValueNode] = set()
        for v in values:
            cn = value_class_name(v)
            if cn is None:
                kept.add(v)
                continue
            key = (cn, type_filter)
            ok = cache.get(key)
            if ok is None:
                self.cast_cache_misses += 1
                ok = self.hierarchy.is_subtype(cn, type_filter)
                cache[key] = ok
            else:
                self.cast_cache_hits += 1
            if ok:
                kept.add(v)
        return kept

    # -- value classification ----------------------------------------------------

    def _is_view_value(self, value: ValueNode) -> bool:
        if isinstance(value, InflViewNode):
            return True
        return isinstance(value, AllocNode) and value in self.graph.view_allocs

    def _is_activity_like(self, value: ValueNode) -> bool:
        """Activities and dialogs both hold root view hierarchies."""
        if isinstance(value, ActivityNode):
            return True
        if isinstance(value, AllocNode):
            return self.hierarchy.is_subtype(
                value.class_name, ACTIVITY
            ) or self.hierarchy.is_subtype(value.class_name, DIALOG)
        return False

    def _views(self, node: Node) -> Set[ValueNode]:
        return {v for v in self.pts.get(node, ()) if self._is_view_value(v)}

    def _activity_likes(self, node: Node) -> Set[ValueNode]:
        return {v for v in self.pts.get(node, ()) if self._is_activity_like(v)}

    def _layout_ids(self, node: Node) -> Set[LayoutIdNode]:
        return {v for v in self.pts.get(node, ()) if isinstance(v, LayoutIdNode)}

    def _view_ids(self, node: Node) -> Set[ViewIdNode]:
        return {v for v in self.pts.get(node, ()) if isinstance(v, ViewIdNode)}

    # -- solving -------------------------------------------------------------------

    def solve(self) -> AnalysisResult:
        tracer = self.tracer
        if tracer is None:
            self._solve()
        else:
            values0 = self.values_added
            work0 = self.work_items
            flow0 = self.graph.flow_edge_count()
            rel0 = self._rel_edge_total()
            desc_hits0 = self.graph.desc_cache_hits
            desc_misses0 = self.graph.desc_cache_misses
            sub_hits0 = self.hierarchy.subtype_cache_hits
            sub_misses0 = self.hierarchy.subtype_cache_misses
            with tracer.span(obs_names.PHASE_SOLVE) as span:
                self._solve()
                span.attrs["rounds"] = self.rounds
                span.attrs["converged"] = self.converged
                span.attrs["solver"] = self.options.solver
            tracer.counter(obs_names.COUNTER_ROUNDS, self.rounds)
            tracer.counter(
                obs_names.COUNTER_VALUES_ADDED, self.values_added - values0
            )
            tracer.counter(obs_names.COUNTER_WORK_ITEMS, self.work_items - work0)
            tracer.counter(
                obs_names.COUNTER_FLOW_EDGES_ADDED,
                self.graph.flow_edge_count() - flow0,
            )
            tracer.counter(
                obs_names.COUNTER_REL_EDGES_ADDED, self._rel_edge_total() - rel0
            )
            tracer.counter(obs_names.COUNTER_OPS_SCHEDULED, self.ops_scheduled)
            tracer.counter(obs_names.COUNTER_OPS_SKIPPED, self.ops_skipped)
            tracer.counter(
                obs_names.COUNTER_DESC_CACHE_HITS,
                self.graph.desc_cache_hits - desc_hits0,
            )
            tracer.counter(
                obs_names.COUNTER_DESC_CACHE_MISSES,
                self.graph.desc_cache_misses - desc_misses0,
            )
            tracer.counter(
                obs_names.COUNTER_SUBTYPE_CACHE_HITS,
                self.hierarchy.subtype_cache_hits - sub_hits0,
            )
            tracer.counter(
                obs_names.COUNTER_SUBTYPE_CACHE_MISSES,
                self.hierarchy.subtype_cache_misses - sub_misses0,
            )
            tracer.counter(obs_names.COUNTER_CAST_CACHE_HITS, self.cast_cache_hits)
            tracer.counter(
                obs_names.COUNTER_CAST_CACHE_MISSES, self.cast_cache_misses
            )
            if self._prov is not None:
                tracer.counter(
                    obs_names.COUNTER_PROV_FACTS, self._prov.record_count()
                )
            if not self.converged:
                tracer.counter(obs_names.COUNTER_MAX_ROUNDS_EXHAUSTED)
        return AnalysisResult(
            app=self.app,
            graph=self.graph,
            hierarchy=self.hierarchy,
            pts=self.pts,
            options=self.options,
            rounds=self.rounds,
            solve_seconds=self.solve_seconds,
            xml_handlers=list(self.xml_handlers),
            menu_items_by_class={
                k: list(v) for k, v in self.menu_items_by_class.items()
            },
            converged=self.converged,
            values_added=self.values_added,
            work_items=self.work_items,
            solver=self.options.solver,
            ops_scheduled=self.ops_scheduled,
            ops_skipped=self.ops_skipped,
            provenance=self._prov,
        )

    def _rel_edge_total(self) -> int:
        return sum(self.graph.rel_edge_count(kind) for kind in RelKind)

    def _solve(self) -> None:
        started = time.perf_counter()
        self.graph.rel_listener = self._on_rel_added
        try:
            self._run_rounds()
        finally:
            self.graph.rel_listener = None
        if not self.converged:
            warnings.warn(
                f"analysis of {self.app.name!r} stopped at "
                f"max_rounds={self.options.max_rounds} without reaching a "
                "fixed point; the solution may be incomplete",
                RuntimeWarning,
                stacklevel=3,
            )
        self.solve_seconds = time.perf_counter() - started

    def _run_rounds(self) -> None:
        """The fixed point: seed, then alternate rule rounds and flowsTo
        propagation until nothing changes (see the module docstring for
        how the two schedules pick a round's ops and stop)."""
        tracer = self.tracer
        graph = self.graph
        all_ops = graph.ops()
        total_ops = len(all_ops)
        schedule_all = self.options.solver == "naive"
        bind_xml = self.options.model_xml_onclick
        rules = self._RULES
        for value in self._initial_values():
            self._seed(value)
        self._propagate()
        self.converged = False
        for round_index in range(self.options.max_rounds):
            self.rounds = round_index + 1
            sweep = schedule_all or round_index == 0
            batch = all_ops if sweep else list(self._dirty)
            self._dirty.clear()
            self.ops_scheduled += len(batch)
            self.ops_skipped += total_ops - len(batch)
            if tracer is not None:
                round_values = self.values_added
                round_work = self.work_items
                round_flow = graph.flow_edge_count()
                round_rel = self._rel_edge_total()
            rules_fired = 0
            for op in batch:
                self._current_op = op
                fired = rules[op.kind](self, op)
                if fired:
                    rules_fired += 1
                if tracer is not None:
                    tracer.counter(obs_names.RULE_EVALUATED[op.kind])
                    if fired:
                        tracer.counter(obs_names.RULE_FIRED[op.kind])
            self._current_op = None
            changed = rules_fired > 0
            # The XML binding runs after the round's ops, so it sees the
            # ROOT/CHILD edges they added.
            if bind_xml and (sweep or self._xml_dirty):
                self._xml_dirty = False
                bindings0 = len(self.xml_handlers)
                changed |= self._bind_xml_onclick()
                bound = len(self.xml_handlers) - bindings0
                if bound and tracer is not None:
                    tracer.counter(obs_names.COUNTER_XML_ONCLICK_BOUND, bound)
            worklist_depth = len(self._queue)
            changed |= self._propagate()
            if tracer is not None:
                tracer.event(
                    obs_names.EVENT_ROUND,
                    round=self.rounds,
                    rules_fired=rules_fired,
                    values_added=self.values_added - round_values,
                    flow_edges_added=graph.flow_edge_count() - round_flow,
                    rel_edges_added=self._rel_edge_total() - round_rel,
                    work_items=self.work_items - round_work,
                    worklist_depth=worklist_depth,
                    ops_scheduled=len(batch),
                    ops_skipped=total_ops - len(batch),
                )
            if schedule_all:
                done = not changed
            else:
                done = not self._dirty and not (bind_xml and self._xml_dirty)
            if done:
                self.converged = True
                break

    # -- read-tracked dependency index -------------------------------------------

    def _read_rel(
        self, kind: RelKind, node: Node, backward: bool = False
    ) -> FrozenSet[Node]:
        """The live ``kind`` edges out of (or, ``backward``, into)
        ``node``, subscribing the op being evaluated to ``kind`` so a
        later edge of that kind re-schedules it."""
        op = self._current_op
        if op is not None:
            self._rel_subs[kind][op] = None
        if backward:
            return self.graph.rel_back_view(kind, node)
        return self.graph.rel_view(kind, node)

    def _read_descendants(self, view: Node) -> Set[Node]:
        """The cached reflexive CHILD-closure of ``view``, subscribing
        the op being evaluated to CHILD edges."""
        op = self._current_op
        if op is not None:
            self._rel_subs[RelKind.CHILD][op] = None
        return self.graph.descendants_cached(view)

    def _on_rel_added(self, kind: RelKind, src: Node, dst: Node) -> None:
        """Graph notification: a new relationship edge appeared."""
        subs = self._rel_subs[kind]
        if subs:
            self._dirty.update(subs)
        if kind is RelKind.ROOT or kind is RelKind.CHILD:
            # android:onClick binding walks activity hierarchies, which
            # grow exactly when ROOT/CHILD edges appear.
            self._xml_dirty = True

    def _depend_on_node(self, node: Node) -> None:
        """Record that the op being evaluated read ``node``'s points-to
        set, so future deltas on ``node`` re-schedule it."""
        op = self._current_op
        if op is not None:
            self._node_deps.setdefault(node, set()).add(op)

    def _initial_values(self) -> List[ValueNode]:
        values: List[ValueNode] = []
        values.extend(self.graph.allocs())
        values.extend(self.graph.activities())
        values.extend(self.graph.layout_id_nodes())
        values.extend(self.graph.view_id_nodes())
        values.extend(self.graph.menu_id_nodes())
        return values

    # -- operation rules ------------------------------------------------------------

    # Rules INFLATE1/INFLATE2 (Section 3.2.1, constraint rules in 4.2).

    def _instantiate_layout(self, op: OpNode, layout_id: LayoutIdNode) -> InflViewNode:
        """Create the fresh inflated-view node family for (site, layout)."""
        key = (op.site, layout_id.name)
        cached = self._inflated.get(key)
        if cached is not None:
            return cached
        tree = self.app.resources.layout(layout_id.name)
        graph = self.graph
        resources = self.app.resources
        rule = op.kind.value
        # Everything the instantiation creates is justified by the
        # layout id reaching the operation's argument port.
        layout_premise = (flow_fact(OpArg(op, 0), layout_id),)

        def instantiate(node: LayoutNode, path: Tuple[int, ...]) -> InflViewNode:
            infl = graph.infl_view(op.site, layout_id.name, path, node.view_class, node.id_name)
            self._seed(infl, rule, layout_premise)
            if node.id_name is not None:
                id_node = graph.view_id(node.id_name, resources.view_id(node.id_name))
                self._seed(id_node)
                graph.add_rel(RelKind.HAS_ID, infl, id_node, rule, layout_premise)
            if node.on_click is not None:
                self._onclick_names[infl] = node.on_click
            for child_index, child in enumerate(node.children):
                child_infl = instantiate(child, path + (child_index,))
                graph.add_rel(RelKind.CHILD, infl, child_infl, rule, layout_premise)
            return infl

        root = instantiate(tree.root, ())
        graph.add_rel(RelKind.INFL_ROOT, root, op, rule, layout_premise)
        graph.add_rel(RelKind.LAYOUT_ORIGIN, root, layout_id, rule, layout_premise)
        self._inflated[key] = root
        return root

    def _op_inflate1(self, op: OpNode) -> bool:
        changed = False
        for layout_id in self._layout_ids(OpArg(op, 0)):
            key = (op.site, layout_id.name)
            fresh = key not in self._inflated
            root = self._instantiate_layout(op, layout_id)
            changed |= fresh
            if self._prov is not None:
                self._prov.record_flow(
                    op, root, op.kind.value, (flow_fact(OpArg(op, 0), layout_id),)
                )
            changed |= self._add_values(op, {root})
        return changed

    def _op_inflate2(self, op: OpNode) -> bool:
        changed = False
        holders = self._activity_likes(OpRecv(op))
        for layout_id in self._layout_ids(OpArg(op, 0)):
            key = (op.site, layout_id.name)
            fresh = key not in self._inflated
            root = self._instantiate_layout(op, layout_id)
            changed |= fresh
            for holder in holders:
                changed |= self.graph.add_rel(
                    RelKind.ROOT,
                    holder,
                    root,
                    op.kind.value,
                    (
                        flow_fact(OpRecv(op), holder),
                        flow_fact(OpArg(op, 0), layout_id),
                    ),
                )
        return changed

    # Rules ADDVIEW1/ADDVIEW2.

    def _op_addview1(self, op: OpNode) -> bool:
        changed = False
        for holder in self._activity_likes(OpRecv(op)):
            for view in self._views(OpArg(op, 0)):
                changed |= self.graph.add_rel(
                    RelKind.ROOT,
                    holder,
                    view,
                    op.kind.value,
                    (flow_fact(OpRecv(op), holder), flow_fact(OpArg(op, 0), view)),
                )
        return changed

    def _op_addview2(self, op: OpNode) -> bool:
        changed = False
        for parent in self._views(OpRecv(op)):
            for child in self._views(OpArg(op, 0)):
                if parent is not child:
                    changed |= self.graph.add_rel(
                        RelKind.CHILD,
                        parent,
                        child,
                        op.kind.value,
                        (
                            flow_fact(OpRecv(op), parent),
                            flow_fact(OpArg(op, 0), child),
                        ),
                    )
        return changed

    # Rule SETID.

    def _op_setid(self, op: OpNode) -> bool:
        changed = False
        for view in self._views(OpRecv(op)):
            for id_node in self._view_ids(OpArg(op, 0)):
                changed |= self.graph.add_rel(
                    RelKind.HAS_ID,
                    view,
                    id_node,
                    op.kind.value,
                    (flow_fact(OpRecv(op), view), flow_fact(OpArg(op, 0), id_node)),
                )
        return changed

    # Rule SETLISTENER plus callback modelling (end of Section 3).

    def _op_setlistener(self, op: OpNode) -> bool:
        spec = self.graph.op_spec(op).listener
        if spec is None:  # pragma: no cover - classification guarantees it
            return False
        changed = False
        views = self._views(OpRecv(op))
        listeners = {
            v
            for v in self.pts.get(OpArg(op, 0), ())
            if self._implements(v, spec.interface)
        }
        rule = op.kind.value
        recv = OpRecv(op)
        arg = OpArg(op, 0)
        for view in views:
            for listener in listeners:
                changed |= self.graph.add_rel(
                    RelKind.LISTENER,
                    view,
                    listener,
                    rule,
                    (flow_fact(recv, view), flow_fact(arg, listener)),
                )
        for listener in listeners:
            handler = self._handler_method(listener, spec.handler, spec.handler_arity)
            if handler is None:
                continue
            key = (listener, handler)
            if key not in self._bound_handlers:
                self._bound_handlers.add(key)
                changed = True
            # The platform callback y.n(x): listener to `this` ...
            changed |= self._add_flow_dynamic(
                listener,
                self.graph.var(handler, "this"),
                rule,
                (flow_fact(arg, listener),),
            )
            # ... and the view to the handler's view parameter.
            if spec.view_param_index is not None:
                param = self._handler_view_param(handler, spec.view_param_index)
                if param is not None:
                    for view in views:
                        changed |= self._add_flow_dynamic(
                            view,
                            param,
                            rule,
                            (flow_fact(recv, view), flow_fact(arg, listener)),
                        )
            # AdapterView families also pass the clicked row: any child
            # of the registered view (rows attached by adapters or
            # add-view) flows to the item parameter.
            if spec.item_param_index is not None:
                param = self._handler_view_param(handler, spec.item_param_index)
                if param is not None:
                    for view in views:
                        # _add_flow_dynamic adds flow edges/values only,
                        # so iterating the live CHILD set is safe.
                        for child in self._read_rel(RelKind.CHILD, view):
                            changed |= self._add_flow_dynamic(
                                child,
                                param,
                                rule,
                                (
                                    flow_fact(recv, view),
                                    rel_fact(RelKind.CHILD, view, child),
                                ),
                            )
        return changed

    def _implements(self, value: ValueNode, interface: str) -> bool:
        class_name = value_class_name(value)
        return class_name is not None and self.hierarchy.is_subtype(
            class_name, interface
        )

    def _handler_method(
        self, listener: ValueNode, name: str, arity: int
    ) -> Optional[MethodSig]:
        class_name = value_class_name(listener)
        if class_name is None:
            return None
        method = self.hierarchy.lookup(class_name, name, arity)
        if method is None:
            return None
        owner = self.app.program.clazz(method.class_name)
        if owner is None or owner.is_platform:
            return None
        return method.sig

    def _handler_view_param(
        self, handler: MethodSig, view_param_index: int
    ) -> Optional[VarNode]:
        method = self.app.program.method(handler.class_name, handler.name, handler.arity)
        if method is None or view_param_index >= len(method.param_names):
            return None
        return self.graph.var(handler, method.param_names[view_param_index])

    # Rules FINDVIEW1/2/3 and the GetParent extension.

    def _find_by_id(
        self, start_views: Set[ValueNode], ids: Set[ViewIdNode]
    ) -> Set[ValueNode]:
        """``find`` from the semantics: descendants (reflexively) of any
        start view whose associated ids intersect ``ids``.

        Intersects the HAS_ID inverted index (the few views carrying a
        requested id) with the cached descendant closure of each start
        view, instead of scanning every descendant and testing its ids."""
        results: Set[ValueNode] = set()
        if not ids or not start_views:
            return results
        candidates: Set[Node] = set()
        for id_node in ids:
            candidates.update(
                self._read_rel(RelKind.HAS_ID, id_node, backward=True)
            )
        if not candidates:
            return results
        for start in start_views:
            descendants = self._read_descendants(start)
            if len(candidates) <= len(descendants):
                results.update(c for c in candidates if c in descendants)  # type: ignore[misc]
                if len(results) == len(candidates):
                    break
            else:
                results.update(d for d in descendants if d in candidates)  # type: ignore[misc]
        return results

    def _record_find_witnesses(
        self,
        op: OpNode,
        starts: Set[ValueNode],
        ids: Set[ViewIdNode],
        results: Set[ValueNode],
        holders_of: Optional[Dict[ValueNode, ValueNode]] = None,
    ) -> None:
        """Record a derivation for each new FindView1/2 result.

        For a result ``v`` the witness is the lexicographically first
        (start view, id) pair such that ``start ancestorOf v`` and
        ``v hasId id``, with the ``ancestorOf`` premise expanded into
        the explicit CHILD-edge chain. ``holders_of`` (FindView2) maps
        each start root to the activity-like holder whose ROOT edge
        contributed it. Runs only with provenance enabled."""
        prov = self._prov
        assert prov is not None
        graph = self.graph
        rule = op.kind.value
        recv = OpRecv(op)
        arg = OpArg(op, 0)
        for v in results:
            if (op, v) in prov.flow:
                continue
            for start in sorted(starts, key=str):
                if not graph.ancestor_of(start, v):
                    continue
                v_ids = graph.rel_view(RelKind.HAS_ID, v)
                id_node = next(
                    (i for i in sorted(ids, key=str) if i in v_ids), None
                )
                if id_node is None:
                    continue
                premises: List[Fact] = []
                if holders_of is None:
                    premises.append(flow_fact(recv, start))
                else:
                    holder = holders_of[start]
                    premises.append(flow_fact(recv, holder))
                    premises.append(rel_fact(RelKind.ROOT, holder, start))
                premises.append(flow_fact(arg, id_node))
                path = graph.child_path(start, v) or [start]
                for parent, child in zip(path, path[1:]):
                    premises.append(rel_fact(RelKind.CHILD, parent, child))
                premises.append(rel_fact(RelKind.HAS_ID, v, id_node))
                prov.record_flow(op, v, rule, tuple(premises))
                break

    def _op_findview1(self, op: OpNode) -> bool:
        starts = self._views(OpRecv(op))
        ids = self._view_ids(OpArg(op, 0))
        results = self._find_by_id(starts, ids)
        if results and self._prov is not None:
            self._record_find_witnesses(op, starts, ids, results)
        return self._add_values(op, results) if results else False

    def _op_findview2(self, op: OpNode) -> bool:
        roots: Set[ValueNode] = set()
        for holder in self._activity_likes(OpRecv(op)):
            roots.update(self._read_rel(RelKind.ROOT, holder))  # type: ignore[arg-type]
        ids = self._view_ids(OpArg(op, 0))
        results = self._find_by_id(roots, ids)
        if results and self._prov is not None:
            holders_of: Dict[ValueNode, ValueNode] = {}
            for holder in sorted(self._activity_likes(OpRecv(op)), key=str):
                for root in self.graph.rel_view(RelKind.ROOT, holder):
                    holders_of.setdefault(root, holder)  # type: ignore[arg-type]
            self._record_find_witnesses(op, roots, ids, results, holders_of)
        return self._add_values(op, results) if results else False

    def _op_findview3(self, op: OpNode) -> bool:
        spec = self.graph.op_spec(op)
        children_only = (
            spec.children_only and self.options.findview3_children_only_refinement
        )
        results: Set[ValueNode] = set()
        for view in self._views(OpRecv(op)):
            if children_only:
                results.update(self._read_rel(RelKind.CHILD, view))  # type: ignore[arg-type]
            else:
                results.update(self._read_descendants(view))  # type: ignore[arg-type]
        if results and self._prov is not None:
            prov = self._prov
            rule = op.kind.value
            recv = OpRecv(op)
            for v in results:
                if (op, v) in prov.flow:
                    continue
                for view in sorted(self._views(recv), key=str):
                    path = self.graph.child_path(view, v)
                    if path is None:
                        continue
                    premises = [flow_fact(recv, view)]
                    premises.extend(
                        rel_fact(RelKind.CHILD, parent, child)
                        for parent, child in zip(path, path[1:])
                    )
                    prov.record_flow(op, v, rule, tuple(premises))
                    break
        return self._add_values(op, results) if results else False

    def _op_getparent(self, op: OpNode) -> bool:
        results: Set[ValueNode] = set()
        for view in self._views(OpRecv(op)):
            results.update(self._read_rel(RelKind.CHILD, view, backward=True))  # type: ignore[arg-type]
        if results and self._prov is not None:
            prov = self._prov
            rule = op.kind.value
            recv = OpRecv(op)
            for v in results:
                if (op, v) in prov.flow:
                    continue
                child = next(
                    (
                        c
                        for c in sorted(self._views(recv), key=str)
                        if c in self.graph.rel_view(RelKind.CHILD, v)
                    ),
                    None,
                )
                if child is not None:
                    prov.record_flow(
                        op,
                        v,
                        rule,
                        (flow_fact(recv, child), rel_fact(RelKind.CHILD, v, child)),
                    )
        return self._add_values(op, results) if results else False

    # Fragment extension (not in the paper's implementation).

    def _op_fragment_mgr(self, op: OpNode) -> bool:
        """Managers/transactions alias the activity that owns them: the
        activity-like receiver values flow straight through."""
        holders = self._activity_likes(OpRecv(op))
        if holders and self._prov is not None:
            for holder in holders:
                self._prov.record_flow(
                    op, holder, op.kind.value, (flow_fact(OpRecv(op), holder),)
                )
        return self._add_values(op, holders) if holders else False

    def _callback_view_roots(
        self,
        value: ValueNode,
        method_name: str,
        arities: Tuple[int, ...],
        rule: str = "Callback",
        premises: Tuple[Fact, ...] = (),
    ) -> Set[ValueNode]:
        """Views returned by ``value``'s framework-invoked view factory
        (a fragment's ``onCreateView``, an adapter's ``getView``).

        Models the callback — the object flows to the factory's
        ``this`` — and collects the views its return variables hold.

        The op being evaluated is registered as a dynamic dependent of
        the factory's return variables, so later points-to growth there
        reschedules it.
        ``rule``/``premises`` justify the callback edge to the
        factory's ``this`` when provenance is recorded.
        """
        class_name = value_class_name(value)
        if class_name is None:
            return set()
        method = None
        for arity in arities:
            method = self.hierarchy.lookup(class_name, method_name, arity)
            if method is not None:
                break
        if method is None:
            return set()
        owner = self.app.program.clazz(method.class_name)
        if owner is None or owner.is_platform:
            return set()
        self._add_flow_dynamic(
            value, self.graph.var(method.sig, "this"), rule, premises
        )
        roots: Set[ValueNode] = set()
        from repro.ir.statements import Return

        for stmt in method.body:
            if isinstance(stmt, Return) and stmt.var is not None:
                node = self.graph.var(method.sig, stmt.var)
                self._depend_on_node(node)
                roots.update(v for v in self.pts.get(node, ()) if self._is_view_value(v))
        return roots

    def _op_fragment_tx(self, op: OpNode) -> bool:
        """``tx.add(containerId, fragment)``: the fragment's view
        hierarchy becomes a child of the container view(s) with that id
        in the owning activity's hierarchies."""
        changed = False
        holders = self._activity_likes(OpRecv(op))
        ids = self._view_ids(OpArg(op, 0))
        fragments = {
            v
            for v in self.pts.get(OpArg(op, 1), ())
            if (cn := value_class_name(v)) is not None
            and self.hierarchy.is_subtype(cn, "android.app.Fragment")
        }
        if not fragments:
            return False
        roots: Set[ValueNode] = set()
        for holder in holders:
            roots.update(self._read_rel(RelKind.ROOT, holder))  # type: ignore[arg-type]
        containers = self._find_by_id(roots, ids)
        rule = op.kind.value
        prov = self._prov
        for fragment in fragments:
            fragment_premise = (flow_fact(OpArg(op, 1), fragment),)
            # The views returned by the fragment's onCreateView override.
            for froot in self._callback_view_roots(
                fragment, "onCreateView", (0, 3), rule, fragment_premise
            ):
                for container in containers:
                    if container is froot:
                        continue
                    if prov is None:
                        changed |= self.graph.add_rel(RelKind.CHILD, container, froot)
                        continue
                    container_ids = self.graph.rel_view(RelKind.HAS_ID, container)
                    cid = next(
                        (i for i in sorted(ids, key=str) if i in container_ids),
                        None,
                    )
                    premises: List[Fact] = [flow_fact(OpArg(op, 1), fragment)]
                    if cid is not None:
                        premises.insert(0, flow_fact(OpArg(op, 0), cid))
                        premises.append(rel_fact(RelKind.HAS_ID, container, cid))
                    changed |= self.graph.add_rel(
                        RelKind.CHILD, container, froot, rule, tuple(premises)
                    )
        return changed

    # Adapter extension: AdapterView.setAdapter(adapter).

    def _op_set_adapter(self, op: OpNode) -> bool:
        """The adapter's ``getView`` produces the row views displayed as
        children of the AdapterView receiver."""
        changed = False
        adapters = {
            v
            for v in self.pts.get(OpArg(op, 0), ())
            if (cn := value_class_name(v)) is not None
            and self.hierarchy.is_subtype(cn, "android.widget.BaseAdapter")
        }
        if not adapters:
            return False
        parents = self._views(OpRecv(op))
        rule = op.kind.value
        for adapter in adapters:
            adapter_premise = (flow_fact(OpArg(op, 0), adapter),)
            for row in self._callback_view_roots(
                adapter, "getView", (0, 3), rule=rule, premises=adapter_premise
            ):
                for parent in parents:
                    if parent is not row:
                        changed |= self.graph.add_rel(
                            RelKind.CHILD,
                            parent,
                            row,
                            rule,
                            (
                                flow_fact(OpRecv(op), parent),
                                flow_fact(OpArg(op, 0), adapter),
                            ),
                        )
        return changed

    # Options-menu extension.

    def _op_menu_inflate(self, op: OpNode) -> bool:
        """``menuInflater.inflate(R.menu.x, menu)``: instantiate menu
        items, attribute them to the enclosing (activity) class, and
        flow each item into ``onOptionsItemSelected`` and its own
        ``android:onClick`` handler."""
        changed = False
        owner_class = op.site.method.class_name
        rule = op.kind.value
        for menu_id in {
            v for v in self.pts.get(OpArg(op, 0), ()) if isinstance(v, MenuIdNode)
        }:
            key = (op.site, menu_id.name)
            if key in self._inflated_menus:
                continue
            self._inflated_menus.add(key)
            changed = True
            menu_premise = (flow_fact(OpArg(op, 0), menu_id),)
            menu = self.app.resources.menu(menu_id.name)
            for index, item_def in enumerate(menu.items):
                item = self.graph.menu_item(
                    op.site, menu_id.name, index, item_def.id_name
                )
                self._seed(item, rule, menu_premise)
                self.menu_items_by_class.setdefault(owner_class, []).append(item)
                if item_def.id_name is not None:
                    id_node = self.graph.view_id(
                        item_def.id_name, self.app.resources.view_id(item_def.id_name)
                    )
                    self._seed(id_node)
                    self.graph.add_rel(RelKind.HAS_ID, item, id_node, rule, menu_premise)
                for handler_name, arity in (
                    (item_def.on_click, 1),
                    ("onOptionsItemSelected", 1),
                ):
                    if handler_name is None:
                        continue
                    method = self.hierarchy.lookup(owner_class, handler_name, arity)
                    if method is None:
                        continue
                    owner = self.app.program.clazz(method.class_name)
                    if owner is None or owner.is_platform:
                        continue
                    param = self.graph.var(method.sig, method.param_names[0])
                    self._add_flow_dynamic(
                        item, param, rule, (flow_fact(item, item),)
                    )
        return changed

    # -- android:onClick binding (extension) -------------------------------------------

    def _bind_xml_onclick(self) -> bool:
        """Bind each declared ``android:onClick`` view (usually a
        handful) reachable from an activity's roots, tested for
        membership in the cached descendant closure of those roots.

        Not an op: it re-runs when a ROOT/CHILD edge appears
        (``_xml_dirty``), so it reads the graph directly."""
        changed = False
        graph = self.graph
        onclick = self._onclick_names
        for act in graph.activities():
            pending = [
                (view, name)
                for view, name in onclick.items()
                if (act.class_name, view) not in self._bound_xml
            ]
            if not pending:
                continue
            reachable: Set[Node] = set()
            for root in graph.rel_view(RelKind.ROOT, act):
                reachable |= graph.descendants_cached(root)
            for view, handler_name in pending:
                if view in reachable:
                    changed |= self._bind_xml_handler(act, view, handler_name)
        return changed

    def _bind_xml_handler(
        self, act: ActivityNode, view: InflViewNode, handler_name: str
    ) -> bool:
        key = (act.class_name, view)
        if key in self._bound_xml:
            return False
        method = self.hierarchy.lookup(act.class_name, handler_name, 1)
        if method is None:
            return False
        owner = self.app.program.clazz(method.class_name)
        if owner is None or owner.is_platform:
            return False
        self._bound_xml.add(key)
        param = self.graph.var(method.sig, method.param_names[0])
        xml_premises = (flow_fact(act, act), flow_fact(view, view))
        self._add_flow_dynamic(view, param, "XmlOnClick", xml_premises)
        if self._prov is not None:
            self._prov.record_flow(
                self.graph.var(method.sig, "this"), act, "XmlOnClick", xml_premises
            )
        self._add_values(self.graph.var(method.sig, "this"), {act})
        self.xml_handlers.append(XmlHandlerBinding(act.class_name, view, method.sig))
        return True

    # The inference rule of each operation kind. A class-level table of
    # plain functions: bound methods stored on the instance would form a
    # reference cycle that keeps every finished analysis alive until the
    # cyclic garbage collector runs.
    _RULES: Dict[OpKind, Callable[["GuiReferenceAnalysis", OpNode], bool]] = {
        OpKind.INFLATE1: _op_inflate1,
        OpKind.INFLATE2: _op_inflate2,
        OpKind.ADDVIEW1: _op_addview1,
        OpKind.ADDVIEW2: _op_addview2,
        OpKind.SETID: _op_setid,
        OpKind.SETLISTENER: _op_setlistener,
        OpKind.FINDVIEW1: _op_findview1,
        OpKind.FINDVIEW2: _op_findview2,
        OpKind.FINDVIEW3: _op_findview3,
        OpKind.GETPARENT: _op_getparent,
        OpKind.FRAGMENT_MGR: _op_fragment_mgr,
        OpKind.FRAGMENT_TX: _op_fragment_tx,
        OpKind.MENU_INFLATE: _op_menu_inflate,
        OpKind.SET_ADAPTER: _op_set_adapter,
    }


def analyze(
    app: AndroidApp,
    options: Optional[AnalysisOptions] = None,
    tracer: Optional[Tracer] = None,
) -> AnalysisResult:
    """Run the full GUI reference analysis on ``app``.

    ``tracer`` (or an ambient tracer installed with
    :func:`repro.obs.enable`) records build/solve spans, per-round
    solver events, and per-rule firing counters; with no tracer the
    instrumentation reduces to a handful of integer bumps and the
    analysis result is bit-for-bit identical.
    """
    return GuiReferenceAnalysis(app, options, tracer=tracer).solve()
