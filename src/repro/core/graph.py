"""The constraint graph: interned nodes, flow edges, relationship edges.

Two edge families, following Section 4.1:

* **flow edges** ``n → n'``: any value flowing to ``n`` also flows to
  ``n'`` (assignments, parameter passing, id-constant loads, operation
  ports and outputs);
* **relationship edges** ``n ⇒ n'``: structural facts — parent-child
  between views, view-to-id association, activity-to-root association,
  view-to-listener association, inflate-root and layout-origin
  provenance.

Relationship edges grow during the fixed point (e.g. a new
parent-child edge appears when a parent/child pair reaches an
``AddView2`` node); the graph exposes mutation methods returning
whether anything changed so the solver can drive its worklist, and an
optional ``rel_listener`` callback that fires once per *new*
relationship edge so the solver can schedule exactly the operation
nodes whose inputs changed.

Each flow edge is one record: ``flow[src][dst]`` is its cast filter
(None when unfiltered). The solver's propagation iterates the inner
dicts in place, and ``has_flow``, ``flow_filter`` and ``flow_edges``
read the same map. Only witnesses read predecessors, so
:class:`~repro.lint.witness.Explainer` builds its own reverse map.
Nodes enter ``nodes`` when they are interned.

``descendants_cached(view)`` is the reflexive CHILD-closure backed by
an incrementally maintained cache. Inserting a CHILD edge ``p -> c``
extends every cached set containing ``p`` with the closure of ``c``
(edges are never removed, so extension — never invalidation — keeps
all entries exact).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.nodes import (
    ActivityNode,
    AllocNode,
    FieldNode,
    InflViewNode,
    LayoutIdNode,
    MenuIdNode,
    MenuItemNode,
    Node,
    OpArg,
    OpNode,
    OpRecv,
    Site,
    StaticFieldNode,
    VarNode,
    ViewIdNode,
)
from repro.core.provenance import FactOrder
from repro.ir.program import MethodSig
from repro.platform.api import OpKind, OpSpec


class RelKind(enum.Enum):
    """Labels of relationship (``⇒``) edges."""

    CHILD = "child"  # view1 => view2 : parent-child
    HAS_ID = "has_id"  # view  => id_v : view-id association
    ROOT = "root"  # act/dialog => view : hierarchy root
    LISTENER = "listener"  # view => listener value
    INFL_ROOT = "infl_root"  # view => op : root inflated by this op
    LAYOUT_ORIGIN = "layout"  # view => id_l : layout the root came from

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_EMPTY_NODE_SET: FrozenSet[Node] = frozenset()
_NO_EDGES: Dict[Node, Optional[str]] = {}


class ConstraintGraph:
    """Mutable constraint graph with node interning.

    Flow edges are one successor map over :class:`Node`; relationship
    edges are kept in per-label forward/backward maps for the queries
    the solver needs (children-of, ids-of, roots-of, ...).
    """

    def __init__(self) -> None:
        self.nodes: Set[Node] = set()
        # src -> {dst: cast filter or None}: one record per flow edge.
        self.flow: Dict[Node, Dict[Node, Optional[str]]] = {}
        self._flow_count = 0
        # Relationship edges, forward and backward.
        self._rel: Dict[RelKind, Dict[Node, Set[Node]]] = {k: {} for k in RelKind}
        self._rel_back: Dict[RelKind, Dict[Node, Set[Node]]] = {k: {} for k in RelKind}
        # Called once per *new* relationship edge (kind, src, dst);
        # installed by the solver for delta scheduling.
        self.rel_listener: Optional[Callable[[RelKind, Node, Node], None]] = None
        # Fact order table (``AnalysisOptions.provenance``). When set,
        # ``add_rel`` numbers each *new* edge; None (the default) costs
        # one ``is not None`` test per new edge.
        self.fact_order: Optional[FactOrder] = None
        # Incrementally maintained reflexive CHILD-closure cache:
        # root -> descendant set, plus the inverted membership index
        # (node -> cached roots whose set contains it) that makes
        # delta-extension on CHILD insertion cheap.
        self._desc_cache: Dict[Node, Set[Node]] = {}
        self._desc_containing: Dict[Node, Set[Node]] = {}
        self.desc_cache_hits = 0
        self.desc_cache_misses = 0
        # Interning tables.
        self._vars: Dict[Tuple[MethodSig, str], VarNode] = {}
        self._fields: Dict[Tuple[str, str], FieldNode] = {}
        self._static_fields: Dict[Tuple[str, str], StaticFieldNode] = {}
        self._allocs: Dict[Site, AllocNode] = {}
        self._activities: Dict[str, ActivityNode] = {}
        self._layout_ids: Dict[str, LayoutIdNode] = {}
        self._view_ids: Dict[str, ViewIdNode] = {}
        self._menu_ids: Dict[str, MenuIdNode] = {}
        self._menu_items: Dict[Tuple[Site, str, int], MenuItemNode] = {}
        self._ops: Dict[Site, OpNode] = {}
        self._op_specs: Dict[OpNode, OpSpec] = {}
        self._infl_views: Dict[Tuple[Site, str, Tuple[int, ...]], InflViewNode] = {}
        # Value-category registries.
        self.view_allocs: Set[AllocNode] = set()
        self.listener_allocs: Set[AllocNode] = set()

    # -- node interning ------------------------------------------------------

    def var(self, method: MethodSig, name: str) -> VarNode:
        key = (method, name)
        node = self._vars.get(key)
        if node is None:
            node = VarNode(method, name)
            self._vars[key] = node
            self.nodes.add(node)
        return node

    def field(self, class_name: str, field_name: str) -> FieldNode:
        key = (class_name, field_name)
        node = self._fields.get(key)
        if node is None:
            node = FieldNode(class_name, field_name)
            self._fields[key] = node
            self.nodes.add(node)
        return node

    def static_field(self, class_name: str, field_name: str) -> StaticFieldNode:
        key = (class_name, field_name)
        node = self._static_fields.get(key)
        if node is None:
            node = StaticFieldNode(class_name, field_name)
            self._static_fields[key] = node
            self.nodes.add(node)
        return node

    def alloc(
        self, site: Site, class_name: str, is_view: bool = False, is_listener: bool = False
    ) -> AllocNode:
        node = self._allocs.get(site)
        if node is None:
            node = AllocNode(site, class_name)
            self._allocs[site] = node
            self.nodes.add(node)
            if is_view:
                self.view_allocs.add(node)
            if is_listener:
                self.listener_allocs.add(node)
        return node

    def activity(self, class_name: str) -> ActivityNode:
        node = self._activities.get(class_name)
        if node is None:
            node = ActivityNode(class_name)
            self._activities[class_name] = node
            self.nodes.add(node)
        return node

    def layout_id(self, name: str, value: int) -> LayoutIdNode:
        node = self._layout_ids.get(name)
        if node is None:
            node = LayoutIdNode(name, value)
            self._layout_ids[name] = node
            self.nodes.add(node)
        return node

    def view_id(self, name: str, value: int) -> ViewIdNode:
        node = self._view_ids.get(name)
        if node is None:
            node = ViewIdNode(name, value)
            self._view_ids[name] = node
            self.nodes.add(node)
        return node

    def menu_id(self, name: str, value: int) -> MenuIdNode:
        node = self._menu_ids.get(name)
        if node is None:
            node = MenuIdNode(name, value)
            self._menu_ids[name] = node
            self.nodes.add(node)
        return node

    def menu_item(
        self, op_site: Site, menu: str, index: int, id_name: Optional[str]
    ) -> MenuItemNode:
        key = (op_site, menu, index)
        node = self._menu_items.get(key)
        if node is None:
            node = MenuItemNode(op_site, menu, index, id_name)
            self._menu_items[key] = node
            self.nodes.add(node)
        return node

    def op(self, kind: OpKind, site: Site, spec: OpSpec) -> OpNode:
        node = self._ops.get(site)
        if node is None:
            node = OpNode(kind, site)
            self._ops[site] = node
            self._op_specs[node] = spec
            self.nodes.add(node)
        return node

    def op_spec(self, op: OpNode) -> OpSpec:
        return self._op_specs[op]

    def op_recv(self, op: OpNode) -> OpRecv:
        node = OpRecv(op)
        self.nodes.add(node)
        return node

    def op_arg(self, op: OpNode, index: int = 0) -> OpArg:
        node = OpArg(op, index)
        self.nodes.add(node)
        return node

    def infl_view(
        self,
        op_site: Site,
        layout: str,
        path: Tuple[int, ...],
        view_class: str,
        id_name: Optional[str],
    ) -> InflViewNode:
        key = (op_site, layout, path)
        node = self._infl_views.get(key)
        if node is None:
            node = InflViewNode(op_site, layout, path, view_class, id_name)
            self._infl_views[key] = node
            self.nodes.add(node)
        return node

    # -- accessors -------------------------------------------------------------

    def ops(self) -> List[OpNode]:
        return list(self._ops.values())

    def op_at(self, site: Site) -> Optional[OpNode]:
        return self._ops.get(site)

    def allocs(self) -> List[AllocNode]:
        return list(self._allocs.values())

    def activities(self) -> List[ActivityNode]:
        return list(self._activities.values())

    def layout_id_nodes(self) -> List[LayoutIdNode]:
        return list(self._layout_ids.values())

    def view_id_nodes(self) -> List[ViewIdNode]:
        return list(self._view_ids.values())

    def menu_id_nodes(self) -> List[MenuIdNode]:
        return list(self._menu_ids.values())

    def menu_item_nodes(self) -> List[MenuItemNode]:
        return list(self._menu_items.values())

    def infl_view_nodes(self) -> List[InflViewNode]:
        return list(self._infl_views.values())

    def lookup_var(self, method: MethodSig, name: str) -> Optional[VarNode]:
        return self._vars.get((method, name))

    def lookup_layout_id(self, name: str) -> Optional[LayoutIdNode]:
        return self._layout_ids.get(name)

    def lookup_view_id(self, name: str) -> Optional[ViewIdNode]:
        return self._view_ids.get(name)

    def is_view_value(self, value: Node) -> bool:
        """Inflated views and allocations of view classes."""
        return isinstance(value, InflViewNode) or value in self.view_allocs

    # -- flow edges --------------------------------------------------------------

    def add_flow(
        self, src: Node, dst: Node, type_filter: Optional[str] = None
    ) -> bool:
        """Add ``src → dst``; returns True when the edge is new.

        ``type_filter`` restricts which values may traverse the edge to
        (abstract objects of) subtypes of the named class — used for
        cast statements, mirroring the type filtering of standard
        reference analyses. Values without a run-time class (ids) pass.
        """
        out = self.flow.get(src)
        if out is None:
            out = self.flow[src] = {}
        elif dst in out:
            return False
        out[dst] = type_filter
        self._flow_count += 1
        return True

    def flow_filter(self, src: Node, dst: Node) -> Optional[str]:
        """The type filter on edge ``src → dst``, if any."""
        return self.flow.get(src, _NO_EDGES).get(dst)

    def has_flow(self, src: Node, dst: Node) -> bool:
        return dst in self.flow.get(src, _NO_EDGES)

    def flow_edges(self) -> Iterator[Tuple[Node, Node]]:
        for src, out in self.flow.items():
            for dst in out:
                yield src, dst

    def flow_edge_count(self) -> int:
        return self._flow_count

    # -- relationship edges ---------------------------------------------------------

    def add_rel(self, kind: RelKind, src: Node, dst: Node) -> bool:
        """Add ``src ⇒ dst`` with label ``kind``; True when new.

        New CHILD edges extend the descendant cache before the
        ``rel_listener`` notification fires, so a listener observing
        the edge already sees consistent closure queries.
        """
        forward = self._rel[kind].setdefault(src, set())
        if dst in forward:
            return False
        forward.add(dst)
        self._rel_back[kind].setdefault(dst, set()).add(src)
        if kind is RelKind.CHILD:
            self._extend_descendant_cache(src, dst)
        if self.fact_order is not None:
            self.fact_order.add_rel(kind, src, dst)
        if self.rel_listener is not None:
            self.rel_listener(kind, src, dst)
        return True

    def rel(self, kind: RelKind, src: Node) -> Set[Node]:
        return set(self._rel[kind].get(src, ()))

    def rel_back(self, kind: RelKind, dst: Node) -> Set[Node]:
        return set(self._rel_back[kind].get(dst, ()))

    def rel_view(self, kind: RelKind, src: Node) -> FrozenSet[Node]:
        """Like :meth:`rel` but returns the internal (live) set without
        copying. Callers must not mutate it and must not add edges of
        the same kind while iterating."""
        return self._rel[kind].get(src, _EMPTY_NODE_SET)  # type: ignore[return-value]

    def rel_back_view(self, kind: RelKind, dst: Node) -> FrozenSet[Node]:
        """Non-copying :meth:`rel_back`; same caveats as :meth:`rel_view`.

        For ``HAS_ID`` this is the id→views inverted index the solver's
        ``FindView`` rules intersect against."""
        return self._rel_back[kind].get(dst, _EMPTY_NODE_SET)  # type: ignore[return-value]

    def has_rel(self, kind: RelKind, src: Node, dst: Node) -> bool:
        return dst in self._rel[kind].get(src, ())

    def rel_edges(self, kind: RelKind) -> Iterator[Tuple[Node, Node]]:
        for src, dsts in self._rel[kind].items():
            for dst in dsts:
                yield src, dst

    def rel_edge_count(self, kind: RelKind) -> int:
        return sum(len(d) for d in self._rel[kind].values())

    # Structured shorthands used by the solver and the results API.

    def children_of(self, view: Node) -> Set[Node]:
        return self.rel(RelKind.CHILD, view)

    def parents_of(self, view: Node) -> Set[Node]:
        return self.rel_back(RelKind.CHILD, view)

    def ids_of(self, view: Node) -> Set[Node]:
        return self.rel(RelKind.HAS_ID, view)

    def roots_of(self, holder: Node) -> Set[Node]:
        return self.rel(RelKind.ROOT, holder)

    def descendants_of(self, view: Node, include_self: bool = True) -> Set[Node]:
        """Reflexive-transitive closure over CHILD edges (``ancestorOf``
        read backwards: returned set = all v with view ancestorOf v).

        Walks the graph on every call — the reference implementation
        that fills the cache. Hot-path callers use
        :meth:`descendants_cached` instead."""
        seen: Set[Node] = set()
        work: List[Node] = [view]
        while work:
            current = work.pop()
            if current in seen:
                continue
            seen.add(current)
            work.extend(self._rel[RelKind.CHILD].get(current, ()))
        if not include_self:
            seen.discard(view)
        return seen

    def descendants_cached(self, view: Node) -> Set[Node]:
        """The reflexive descendant set of ``view``, cache-backed.

        Returns the internal cached set — callers must treat it as
        read-only. The cache stays exact across later ``add_rel``
        calls: CHILD edges only ever extend closures (nothing is
        removed), and :meth:`_extend_descendant_cache` applies the
        extension at insertion time."""
        cached = self._desc_cache.get(view)
        if cached is not None:
            self.desc_cache_hits += 1
            return cached
        self.desc_cache_misses += 1
        cached = self.descendants_of(view, include_self=True)
        self._desc_cache[view] = cached
        containing = self._desc_containing
        for member in cached:
            containing.setdefault(member, set()).add(view)
        return cached

    def _extend_descendant_cache(self, parent: Node, child: Node) -> None:
        """Extend cached closures for a new CHILD edge ``parent -> child``.

        Any new path enabled by the edge factors as
        ``root ->* parent -> child ->* target``, so a cached set gains
        exactly ``{child} ∪ reach(child)`` — and only if it already
        contains ``parent``. ``reach(child)`` itself is unchanged by
        the insertion (new paths from ``child`` revisit only nodes it
        already reached), so a pre-existing cached entry for ``child``
        stays valid and can serve as the extension set."""
        containing = self._desc_containing.get(parent)
        if not containing:
            return
        addition = self._desc_cache.get(child)
        if addition is None:
            addition = self.descendants_of(child, include_self=True)
        for root in list(containing):
            cached = self._desc_cache.get(root)
            if cached is None:  # pragma: no cover - index only holds cached roots
                continue
            new = addition - cached
            if not new:
                continue
            cached |= new
            containing_index = self._desc_containing
            for member in new:
                containing_index.setdefault(member, set()).add(root)

    def ancestor_of(self, view1: Node, view2: Node) -> bool:
        """The paper's ``ancestorOf`` relation (reflexive)."""
        return view2 in self.descendants_cached(view1)

    # -- summary -----------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        return {
            "nodes": len(self.nodes),
            "flow_edges": self._flow_count,
            "rel_edges": sum(self.rel_edge_count(k) for k in RelKind),
            "ops": len(self._ops),
            "allocs": len(self._allocs),
            "inflated_views": len(self._infl_views),
        }
