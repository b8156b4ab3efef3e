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
  are (a) the op's receiver/argument ports (each port is listed under
  its op in ``_node_deps``, so a delta there marks the op dirty), (b)
  the relationship-edge kinds the rule read
  (``_read_rel``/``_read_descendants`` subscribe the op being
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
from typing import Callable, Collection, Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.app import AndroidApp
from repro.core.builder import build_constraint_graph
from repro.core.graph import RECV, ConstraintGraph, RelKind
from repro.core.nodes import (
    ActivityNode,
    AllocNode,
    LayoutIdNode,
    MenuIdNode,
    MenuItemNode,
    Node,
    OpNode,
    Site,
    ViewIdNode,
    is_activity_like,
    value_class_name,
    value_is_a,
)
from repro.core.provenance import FactOrder
from repro.core.results import AnalysisResult, PointsTo, XmlHandlerBinding
from repro.gcpause import gc_paused
from repro.hierarchy.cha import ClassHierarchy
from repro.obs import names as obs_names
from repro.obs.tracer import Tracer, active as active_tracer
from repro.ir.program import Method
from repro.platform.api import OpKind
from repro.resources.layout import LayoutNode

_NO_VALUES: FrozenSet[int] = frozenset()


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

    ``provenance`` (off by default) numbers every fact in the order it
    was first added (one integer per fact — see
    :mod:`repro.core.provenance`). It works identically under both
    solver modes and never changes the computed solution; the lint
    engine (:mod:`repro.lint`) rebuilds witness paths from the solution
    after solving and uses the numbers to keep them well-founded.
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
    """One analysis run over one :class:`AndroidApp`.

    The solver works on the graph's dense node ids (see
    :mod:`repro.core.graph`): ``pts`` maps a pointer node's id to the
    ids of the values flowing to it, and so do the worklist, the
    pending deltas and the dependency index. Rules decode an id through
    ``graph.node_list`` when they need a node's fields, and read and add
    relationship edges, which stay on nodes. The result exposes ``pts``
    through :class:`~repro.core.results.PointsTo`, which decodes on
    access.
    """

    @gc_paused()
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
        self._build = build
        # id -> node; the graph appends to this list as it interns.
        self._nodes: List[Node] = self.graph.node_list
        self.pts: Dict[int, Set[int]] = {}
        # (op id, layout name) -> root view id, and (op id, menu name).
        self._inflated: Dict[Tuple[int, str], int] = {}
        self._inflated_menus: Set[Tuple[int, str]] = set()
        self.menu_items_by_class: Dict[str, List[MenuItemNode]] = {}
        # Inflated view id -> its android:onClick handler name.
        self._onclick_names: Dict[int, str] = {}
        # (listener id, handler's ``this`` id) and (activity class, view id).
        self._bound_handlers: Set[Tuple[int, int]] = set()
        self._bound_xml: Set[Tuple[str, int]] = set()
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
        self._pending: Dict[int, Set[int]] = {}
        self._queue: Deque[int] = deque()
        # Dirty op ids in mark order (dict-as-ordered-set for determinism).
        self._dirty: Dict[int, None] = {}
        # Pointer node -> ops that read its points-to set: each port's
        # own op, plus nodes rules read outside their ports
        # (``_depend_on_node``).
        self._node_deps: Dict[int, Set[int]] = {}
        for port, op in self.graph.port_owners():
            self._node_deps[port] = {op}
        # Read-tracked subscriptions: relationship-edge kind -> ops
        # whose rule read edges of that kind while being evaluated
        # (``_current_op``); never removed. Stored as dicts so one edge
        # notification marks every subscriber dirty with a single
        # ``dict.update``.
        self._rel_subs: Dict[RelKind, Dict[int, None]] = {kind: {} for kind in RelKind}
        self._current_op: Optional[int] = None
        self._xml_dirty = False
        # (value class, cast filter) -> bool memo for cast filtering.
        self._cast_cache: Dict[Tuple[str, str], bool] = {}
        self.cast_cache_hits = 0
        self.cast_cache_misses = 0
        # -- fact order (opt-in, see core/provenance.py) -------------------
        # Written where flow facts, relationship edges and solver-made
        # flow edges are inserted, each guarded by ``is not None``; it
        # never feeds back into solving.
        self._order: Optional[FactOrder] = (
            FactOrder(self.graph) if self.options.provenance else None
        )

    # -- flowsTo maintenance ---------------------------------------------------

    def _add_values(self, node: int, values: Set[int]) -> bool:
        current = self.pts.get(node)
        if current is None:
            current = set()
            self.pts[node] = current
        delta = values - current
        if not delta:
            return False
        current |= delta
        self.values_added += len(delta)
        if self._order is not None:
            self._order.add_flows(node, delta)
        pending = self._pending.get(node)
        if pending is None:
            self._pending[node] = delta
            self._queue.append(node)
        else:
            pending |= delta
        # Delta scheduling: a changed input port dirties its op; a
        # changed node some rule read dynamically dirties that rule.
        deps = self._node_deps.get(node)
        if deps:
            dirty = self._dirty
            for op in deps:
                dirty[op] = None
        return True

    def _add_flow_dynamic(self, src: int, dst: int) -> bool:
        """Add a flow edge discovered during solving and propagate.

        Only a *new* edge needs an explicit push of the source's
        current points-to set: once the edge exists, every later delta
        on ``src`` (including any still sitting in the worklist) is
        propagated across it by the drain loop, so re-pushing the full
        set would only recompute an empty difference."""
        if not self.graph.add_flow_ids(src, dst):
            return False
        if self._order is not None:
            self._order.add_edge(self._nodes[src], self._nodes[dst])
        existing = self.pts.get(src)
        if existing:
            self._add_values(dst, existing)
        return True

    def _propagate(self) -> bool:
        """Difference propagation of pending deltas along flow edges;
        True when any delta was pending.

        Deltas are coalesced per node before propagating (a node hit by
        many singleton deltas traverses its out-edges once, not once
        per delta), successors come paired with their cast filter,
        filter decisions are memoised per (value class, filter), and
        empty filtered deltas are dropped without touching ``pts``."""
        changed = False
        queue = self._queue
        pending = self._pending
        pts = self.pts
        # The graph's successor map is iterated in place, which is safe
        # because nothing adds a flow edge while deltas propagate (rules
        # do, between propagations).
        flow = self.graph.flow
        filter_casts = self.options.filter_casts
        filter_cached = self._filter_values_cached
        dirty = self._dirty
        node_deps = self._node_deps
        order = self._order
        empty: Dict[int, Optional[str]] = {}
        while queue:
            node = queue.popleft()
            delta = pending.pop(node, None)
            if delta is None:
                # Already propagated by an earlier coalesced pop.
                continue
            changed = True
            self.work_items += 1
            for succ, type_filter in flow.get(node, empty).items():
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
                if order is not None:
                    order.add_flows(succ, new)
                prior = pending.get(succ)
                if prior is None:
                    pending[succ] = new
                    queue.append(succ)
                else:
                    prior |= new
                deps = node_deps.get(succ)
                if deps:
                    for op in deps:
                        dirty[op] = None
        return changed

    def _filter_values_cached(self, values: Set[int], type_filter: str) -> Set[int]:
        """The values that pass an edge's cast filter, with the subtype
        decision memoised per (value class, filter). Values without a
        run-time class (layout/view ids) pass through; reference casts
        only constrain abstract objects."""
        cache = self._cast_cache
        nodes = self._nodes
        kept: Set[int] = set()
        for v in values:
            cn = value_class_name(nodes[v])
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
    # Rules read a port by id (None when the op has no such port, which
    # reads as an empty set) and get value ids back, except where they
    # need the nodes' fields.

    def _port_values(self, op: int, slot: int) -> Set[int]:
        return self.pts.get(self.graph.port(op, slot), _NO_VALUES)

    def _views(self, op: int, slot: int) -> Set[int]:
        is_view = self.graph.is_view_id
        return {v for v in self._port_values(op, slot) if is_view(v)}

    def _activity_likes(self, op: int, slot: int) -> Set[int]:
        nodes, hierarchy = self._nodes, self.hierarchy
        return {
            v for v in self._port_values(op, slot) if is_activity_like(hierarchy, nodes[v])
        }

    def _instances(self, op: int, slot: int, class_name: str) -> Set[int]:
        nodes, hierarchy = self._nodes, self.hierarchy
        return {
            v
            for v in self._port_values(op, slot)
            if value_is_a(hierarchy, nodes[v], class_name)
        }

    def _nodes_of(self, op: int, slot: int, cls: type) -> List[Node]:
        """The values at a port that are nodes of kind ``cls``."""
        nodes = self._nodes
        return [nodes[v] for v in self._port_values(op, slot) if nodes[v].__class__ is cls]

    def _decode(self, ids: Set[int]) -> List[Node]:
        nodes = self._nodes
        return [nodes[i] for i in ids]

    def _encode(self, nodes: Set[Node]) -> Set[int]:
        id_of = self.graph.id_of
        return {id_of(n) for n in nodes}

    # -- solving -------------------------------------------------------------------

    @gc_paused()
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
            if self._order is not None:
                tracer.counter(
                    obs_names.COUNTER_PROV_FACTS, self._order.record_count()
                )
            if not self.converged:
                tracer.counter(obs_names.COUNTER_MAX_ROUNDS_EXHAUSTED)
        return AnalysisResult(
            app=self.app,
            graph=self.graph,
            hierarchy=self.hierarchy,
            pts=PointsTo(self.graph, self.pts),
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
            provenance=self._order,
            invoke_sites=self._build.invoke_sites,
            cast_sites=self._build.cast_sites,
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
        all_ops = graph.ids_of_kind(OpNode)
        kinds = {op: self._nodes[op].kind for op in all_ops}
        total_ops = len(all_ops)
        schedule_all = self.options.solver == "naive"
        bind_xml = self.options.model_xml_onclick
        rules = self._RULES
        for cls in (AllocNode, ActivityNode, LayoutIdNode, ViewIdNode, MenuIdNode):
            for value in graph.ids_of_kind(cls):
                self._add_values(value, {value})
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
                kind = kinds[op]
                fired = rules[kind](self, op)
                if fired:
                    rules_fired += 1
                if tracer is not None:
                    tracer.counter(obs_names.RULE_EVALUATED[kind])
                    if fired:
                        tracer.counter(obs_names.RULE_FIRED[kind])
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
        if self._order is not None:
            self._order.add_rel(kind, src, dst)
        subs = self._rel_subs[kind]
        if subs:
            self._dirty.update(subs)
        if kind is RelKind.ROOT or kind is RelKind.CHILD:
            # android:onClick binding walks activity hierarchies, which
            # grow exactly when ROOT/CHILD edges appear.
            self._xml_dirty = True

    def _depend_on_node(self, node: int) -> None:
        """Record that the op being evaluated read ``node``'s points-to
        set, so future deltas on ``node`` re-schedule it."""
        op = self._current_op
        if op is not None:
            self._node_deps.setdefault(node, set()).add(op)

    # -- operation rules ------------------------------------------------------------

    # Rules INFLATE1/INFLATE2 (Section 3.2.1, constraint rules in 4.2).

    def _instantiate_layout(self, op: int, layout_id: LayoutIdNode) -> int:
        """Create the fresh inflated-view node family for (site, layout);
        returns the root's id."""
        key = (op, layout_id.name)
        cached = self._inflated.get(key)
        if cached is not None:
            return cached
        tree = self.app.resources.layout(layout_id.name)
        op_node = self._nodes[op]
        root = self._instantiate_node(op_node.site, layout_id.name, tree.root, ())
        self.graph.add_rel(RelKind.INFL_ROOT, self._nodes[root], op_node)
        self.graph.add_rel(RelKind.LAYOUT_ORIGIN, self._nodes[root], layout_id)
        self._inflated[key] = root
        return root

    def _instantiate_node(
        self, site: Site, layout: str, node: LayoutNode, path: Tuple[int, ...]
    ) -> int:
        # Not a closure: a closure that calls itself is a reference cycle
        # holding the whole analysis until the cycle collector runs.
        graph, nodes = self.graph, self._nodes
        infl = graph.infl_view_id(site, layout, path, node.view_class, node.id_name)
        self._add_values(infl, {infl})
        if node.id_name is not None:
            id_node = graph.view_id_id(node.id_name, self.app.resources.view_id(node.id_name))
            self._add_values(id_node, {id_node})
            graph.add_rel(RelKind.HAS_ID, nodes[infl], nodes[id_node])
        if node.on_click is not None:
            self._onclick_names[infl] = node.on_click
        for child_index, child in enumerate(node.children):
            child_infl = self._instantiate_node(site, layout, child, path + (child_index,))
            graph.add_rel(RelKind.CHILD, nodes[infl], nodes[child_infl])
        return infl

    def _op_inflate1(self, op: int) -> bool:
        changed = False
        for layout_id in self._nodes_of(op, 0, LayoutIdNode):
            fresh = (op, layout_id.name) not in self._inflated
            root = self._instantiate_layout(op, layout_id)
            changed |= fresh
            changed |= self._add_values(op, {root})
        return changed

    def _op_inflate2(self, op: int) -> bool:
        changed = False
        nodes = self._nodes
        holders = self._activity_likes(op, RECV)
        for layout_id in self._nodes_of(op, 0, LayoutIdNode):
            fresh = (op, layout_id.name) not in self._inflated
            root = nodes[self._instantiate_layout(op, layout_id)]
            changed |= fresh
            for holder in holders:
                changed |= self.graph.add_rel(RelKind.ROOT, nodes[holder], root)
        return changed

    # Rules ADDVIEW1/ADDVIEW2.

    def _op_addview1(self, op: int) -> bool:
        changed = False
        nodes = self._nodes
        for holder in self._activity_likes(op, RECV):
            for view in self._views(op, 0):
                changed |= self.graph.add_rel(RelKind.ROOT, nodes[holder], nodes[view])
        return changed

    def _op_addview2(self, op: int) -> bool:
        changed = False
        nodes = self._nodes
        for parent in self._views(op, RECV):
            for child in self._views(op, 0):
                if parent != child:
                    changed |= self.graph.add_rel(RelKind.CHILD, nodes[parent], nodes[child])
        return changed

    # Rule SETID.

    def _op_setid(self, op: int) -> bool:
        changed = False
        nodes = self._nodes
        for view in self._views(op, RECV):
            for id_node in self._nodes_of(op, 0, ViewIdNode):
                changed |= self.graph.add_rel(RelKind.HAS_ID, nodes[view], id_node)
        return changed

    # Rule SETLISTENER plus callback modelling (end of Section 3).

    def _op_setlistener(self, op: int) -> bool:
        spec = self.graph.op_specs[op].listener
        if spec is None:  # pragma: no cover - classification guarantees it
            return False
        changed = False
        graph, nodes = self.graph, self._nodes
        views = self._views(op, RECV)
        listeners = self._instances(op, 0, spec.interface)
        for view in views:
            for listener in listeners:
                changed |= graph.add_rel(RelKind.LISTENER, nodes[view], nodes[listener])
        for listener in listeners:
            method = self.hierarchy.app_callback(
                value_class_name(nodes[listener]),
                spec.handler,
                (spec.handler_arity,),
            )
            if method is None:
                continue
            this = graph.var_id(method.sig, "this")
            key = (listener, this)
            if key not in self._bound_handlers:
                self._bound_handlers.add(key)
                changed = True
            # The platform callback y.n(x): listener to `this` ...
            changed |= self._add_flow_dynamic(listener, this)
            # ... and the view to the handler's view parameter.
            if spec.view_param_index is not None:
                param = self._handler_view_param(method, spec.view_param_index)
                if param is not None:
                    for view in views:
                        changed |= self._add_flow_dynamic(view, param)
            # AdapterView families also pass the clicked row: any child
            # of the registered view (rows attached by adapters or
            # add-view) flows to the item parameter.
            if spec.item_param_index is not None:
                param = self._handler_view_param(method, spec.item_param_index)
                if param is not None:
                    for view in views:
                        # _add_flow_dynamic adds flow edges/values only,
                        # so iterating the live CHILD set is safe.
                        for child in self._read_rel(RelKind.CHILD, nodes[view]):
                            changed |= self._add_flow_dynamic(graph.id_of(child), param)
        return changed

    def _handler_view_param(self, handler: Method, index: int) -> Optional[int]:
        if index >= len(handler.param_names):
            return None
        return self.graph.var_id(handler.sig, handler.param_names[index])

    # Rules FINDVIEW1/2/3 and the GetParent extension.

    def _find_by_id(self, start_views: Collection[Node], ids: Collection[Node]) -> Set[Node]:
        """``find`` from the semantics: descendants (reflexively) of any
        start view whose associated ids intersect ``ids``.

        Intersects the HAS_ID inverted index (the few views carrying a
        requested id) with the cached descendant closure of each start
        view, instead of scanning every descendant and testing its ids."""
        results: Set[Node] = set()
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
                results.update(c for c in candidates if c in descendants)
                if len(results) == len(candidates):
                    break
            else:
                results.update(d for d in descendants if d in candidates)
        return results

    def _add_found(self, op: int, results: Set[Node]) -> bool:
        """Views a lookup rule found (relationship-edge nodes) flow out of ``op``."""
        return self._add_values(op, self._encode(results)) if results else False

    def _op_findview1(self, op: int) -> bool:
        starts = self._decode(self._views(op, RECV))
        return self._add_found(op, self._find_by_id(starts, self._nodes_of(op, 0, ViewIdNode)))

    def _op_findview2(self, op: int) -> bool:
        roots: Set[Node] = set()
        for holder in self._decode(self._activity_likes(op, RECV)):
            roots.update(self._read_rel(RelKind.ROOT, holder))
        return self._add_found(op, self._find_by_id(roots, self._nodes_of(op, 0, ViewIdNode)))

    def _op_findview3(self, op: int) -> bool:
        spec = self.graph.op_specs[op]
        children_only = (
            spec.children_only and self.options.findview3_children_only_refinement
        )
        results: Set[Node] = set()
        for view in self._decode(self._views(op, RECV)):
            if children_only:
                results.update(self._read_rel(RelKind.CHILD, view))
            else:
                results.update(self._read_descendants(view))
        return self._add_found(op, results)

    def _op_getparent(self, op: int) -> bool:
        results: Set[Node] = set()
        for view in self._decode(self._views(op, RECV)):
            results.update(self._read_rel(RelKind.CHILD, view, backward=True))
        return self._add_found(op, results)

    # Fragment extension (not in the paper's implementation).

    def _op_fragment_mgr(self, op: int) -> bool:
        """Managers/transactions alias the activity that owns them: the
        activity-like receiver values flow straight through."""
        holders = self._activity_likes(op, RECV)
        return self._add_values(op, holders) if holders else False

    def _callback_view_roots(
        self, value: int, method_name: str, arities: Tuple[int, ...]
    ) -> Set[int]:
        """Views returned by ``value``'s framework-invoked view factory
        (a fragment's ``onCreateView``, an adapter's ``getView``).

        Models the callback — the object flows to the factory's
        ``this`` — and collects the views its return variables hold.

        The op being evaluated is registered as a dynamic dependent of
        the factory's return variables, so later points-to growth there
        reschedules it.
        """
        method = self.hierarchy.app_callback(
            value_class_name(self._nodes[value]), method_name, arities
        )
        if method is None:
            return set()
        graph = self.graph
        sig = method.sig
        self._add_flow_dynamic(value, graph.var_id(sig, "this"))
        roots: Set[int] = set()
        from repro.ir.statements import Return

        for stmt in method.body:
            if isinstance(stmt, Return) and stmt.var is not None:
                node = graph.var_id(sig, stmt.var)
                self._depend_on_node(node)
                roots.update(v for v in self.pts.get(node, ()) if graph.is_view_id(v))
        return roots

    def _op_fragment_tx(self, op: int) -> bool:
        """``tx.add(containerId, fragment)``: the fragment's view
        hierarchy becomes a child of the container view(s) with that id
        in the owning activity's hierarchies."""
        changed = False
        nodes = self._nodes
        holders = self._activity_likes(op, RECV)
        ids = self._nodes_of(op, 0, ViewIdNode)
        fragments = self._instances(op, 1, "android.app.Fragment")
        if not fragments:
            return False
        roots: Set[Node] = set()
        for holder in holders:
            roots.update(self._read_rel(RelKind.ROOT, nodes[holder]))
        containers = self._find_by_id(roots, ids)
        for fragment in fragments:
            # The views returned by the fragment's onCreateView override.
            for froot in self._decode(self._callback_view_roots(fragment, "onCreateView", (0, 3))):
                for container in containers:
                    if container is not froot:
                        changed |= self.graph.add_rel(RelKind.CHILD, container, froot)
        return changed

    # Adapter extension: AdapterView.setAdapter(adapter).

    def _op_set_adapter(self, op: int) -> bool:
        """The adapter's ``getView`` produces the row views displayed as
        children of the AdapterView receiver."""
        changed = False
        nodes = self._nodes
        adapters = self._instances(op, 0, "android.widget.BaseAdapter")
        if not adapters:
            return False
        parents = self._views(op, RECV)
        for adapter in adapters:
            for row in self._callback_view_roots(adapter, "getView", (0, 3)):
                for parent in parents:
                    if parent != row:
                        changed |= self.graph.add_rel(RelKind.CHILD, nodes[parent], nodes[row])
        return changed

    # Options-menu extension.

    def _op_menu_inflate(self, op: int) -> bool:
        """``menuInflater.inflate(R.menu.x, menu)``: instantiate menu
        items, attribute them to the enclosing (activity) class, and
        flow each item into ``onOptionsItemSelected`` and its own
        ``android:onClick`` handler."""
        changed = False
        graph, nodes = self.graph, self._nodes
        site = nodes[op].site
        owner_class = site.method.class_name
        for menu_id in self._nodes_of(op, 0, MenuIdNode):
            key = (op, menu_id.name)
            if key in self._inflated_menus:
                continue
            self._inflated_menus.add(key)
            changed = True
            menu = self.app.resources.menu(menu_id.name)
            for index, item_def in enumerate(menu.items):
                item = graph.menu_item_id(site, menu_id.name, index, item_def.id_name)
                self._add_values(item, {item})
                self.menu_items_by_class.setdefault(owner_class, []).append(nodes[item])
                if item_def.id_name is not None:
                    id_node = graph.view_id_id(
                        item_def.id_name, self.app.resources.view_id(item_def.id_name)
                    )
                    self._add_values(id_node, {id_node})
                    graph.add_rel(RelKind.HAS_ID, nodes[item], nodes[id_node])
                for handler_name in (item_def.on_click, "onOptionsItemSelected"):
                    method = self.hierarchy.app_callback(owner_class, handler_name, (1,))
                    if method is None:
                        continue
                    param = graph.var_id(method.sig, method.param_names[0])
                    self._add_flow_dynamic(item, param)
        return changed

    # -- android:onClick binding (extension) -------------------------------------------

    def _bind_xml_onclick(self) -> bool:
        """Bind each declared ``android:onClick`` view (usually a
        handful) reachable from an activity's roots, tested for
        membership in the cached descendant closure of those roots.

        Not an op: it re-runs when a ROOT/CHILD edge appears
        (``_xml_dirty``), so it reads the graph directly."""
        changed = False
        graph, nodes = self.graph, self._nodes
        onclick = self._onclick_names
        for act in graph.ids_of_kind(ActivityNode):
            act_node = nodes[act]
            pending = [
                (view, name)
                for view, name in onclick.items()
                if (act_node.class_name, view) not in self._bound_xml
            ]
            if not pending:
                continue
            reachable: Set[Node] = set()
            for root in graph.rel_view(RelKind.ROOT, act_node):
                reachable |= graph.descendants_cached(root)
            for view, handler_name in pending:
                if nodes[view] in reachable:
                    changed |= self._bind_xml_handler(act, view, handler_name)
        return changed

    def _bind_xml_handler(self, act: int, view: int, handler_name: str) -> bool:
        class_name = self._nodes[act].class_name
        key = (class_name, view)
        if key in self._bound_xml:
            return False
        method = self.hierarchy.app_callback(class_name, handler_name, (1,))
        if method is None:
            return False
        self._bound_xml.add(key)
        graph = self.graph
        param = graph.var_id(method.sig, method.param_names[0])
        self._add_flow_dynamic(view, param)
        self._add_values(graph.var_id(method.sig, "this"), {act})
        self.xml_handlers.append(
            XmlHandlerBinding(class_name, self._nodes[view], method.sig)
        )
        return True

    # The inference rule of each operation kind. A class-level table of
    # plain functions: bound methods stored on the instance would form a
    # reference cycle that keeps every finished analysis alive until the
    # cyclic garbage collector runs.
    _RULES: Dict[OpKind, Callable[["GuiReferenceAnalysis", int], bool]] = {
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
