"""The constraint graph: interned nodes, flow edges, relationship edges.

Two edge families, following Section 4.1:

* **flow edges** ``n → n'``: any value flowing to ``n`` also flows to
  ``n'`` (assignments, parameter passing, id-constant loads, operation
  ports and outputs);
* **relationship edges** ``n ⇒ n'``: structural facts — parent-child
  between views, view-to-id association, activity-to-root association,
  view-to-listener association, inflate-root and layout-origin
  provenance.

**Dense ids.** Interning a node gives it the next small int id, and
``node_list[id]`` is the node. Each kind is interned through a table
keyed by the fields that identify it: locals per method
(``MethodSig`` → name → id, so the builder hashes a method's signature
once, not once per statement), operation ports per operation id. Both
edge families are stored over ids, and the builder and the solver work
on ids only (the ``*_id`` methods, :meth:`add_flow_ids`, ``flow``,
:meth:`add_rel`, :meth:`rel_view`, :meth:`rel_back_view`,
:meth:`descendants_cached`), so neither hashes a node. Node objects
appear only at the result boundary: :meth:`id_of` (which finds a
node's id through its kind's table, so a freshly built equal node such
as ``OpRecv(op)`` is found), the node-facing flow queries
``has_flow``, ``flow_filter``, ``flow_edges`` and ``nodes``, and the
node-facing relationship queries ``rel``, ``has_rel``, ``rel_edges``,
``children_of``, ``ids_of`` and ``descendants_of``. Sets of nodes are
returned as :class:`NodeSet`, which holds ids and decodes on access.

Each flow edge is one record: ``flow[src][dst]`` is its cast filter
(None when unfiltered), over ids. The solver's propagation iterates
the inner dicts in place. Only witnesses read predecessors, so
:class:`~repro.lint.witness.Explainer` builds its own reverse map.

Relationship edges are few (587 on the K9 corpus app, against 40,072
flow edges), but they grow during the fixed point (e.g. a new
parent-child edge appears when a parent/child pair reaches an
``AddView2`` node). :meth:`add_rel` returns whether the edge is new so
the solver can drive its worklist, and an optional ``rel_listener``
callback fires once per *new* edge so the solver can schedule exactly
the operation nodes whose inputs changed.

``descendants_cached(view)`` is the reflexive CHILD-closure backed by
an incrementally maintained cache. Inserting a CHILD edge ``p -> c``
extends every cached set containing ``p`` with the closure of ``c``
(edges are never removed, so extension — never invalidation — keeps
all entries exact).
"""

from __future__ import annotations

import enum
from collections.abc import Set as AbstractSet
from operator import attrgetter
from typing import Callable, Collection, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

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


_NO_ID_SET: FrozenSet[int] = frozenset()
_NO_EDGES: Dict[int, Optional[str]] = {}
_NO_IDS: Dict[str, int] = {}

# The port slot of an operation's receiver; argument ports use their index.
RECV = -1

# The fields that identify a node of each kind (besides locals and ports):
# the key of its interning table.
_KEYS: Dict[type, Callable[[Node], object]] = {
    FieldNode: attrgetter("class_name", "field_name"),
    StaticFieldNode: attrgetter("class_name", "field_name"),
    AllocNode: attrgetter("site"),
    ActivityNode: attrgetter("class_name"),
    LayoutIdNode: attrgetter("name"),
    ViewIdNode: attrgetter("name"),
    MenuIdNode: attrgetter("name"),
    MenuItemNode: attrgetter("op_site", "menu", "index"),
    OpNode: attrgetter("site"),
    InflViewNode: attrgetter("op_site", "layout", "path"),
}


class NodeSet(AbstractSet):
    """A read-only set of interned nodes, held as ids and decoded on
    access; ``in`` accepts any equal node."""

    __slots__ = ("_graph", "_ids")

    def __init__(self, graph: "ConstraintGraph", ids: Collection[int]) -> None:
        self._graph = graph
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Node]:
        nodes = self._graph.node_list
        return (nodes[i] for i in self._ids)

    def __contains__(self, node: object) -> bool:
        i = self._graph.id_of(node)
        return i is not None and i in self._ids

    @classmethod
    def _from_iterable(cls, nodes):
        # Set operators (``&``, ``|``, ``-``) build a plain set of nodes.
        return set(nodes)


class ConstraintGraph:
    """Mutable constraint graph with node interning.

    Flow edges are one successor map over node ids; relationship edges
    are per-label forward and backward maps over node ids, for the
    queries the solver needs (children-of, ids-of, roots-of, ...).
    """

    def __init__(self) -> None:
        # id -> node, in interning order.
        self.node_list: List[Node] = []
        # src id -> {dst id: cast filter or None}: one record per flow edge.
        self.flow: Dict[int, Dict[int, Optional[str]]] = {}
        self._flow_count = 0
        # Relationship edges, forward and backward, over ids.
        self._rel: Dict[RelKind, Dict[int, Set[int]]] = {k: {} for k in RelKind}
        self._rel_back: Dict[RelKind, Dict[int, Set[int]]] = {k: {} for k in RelKind}
        # Called once per *new* relationship edge (kind, src id, dst
        # id); installed by the solver for delta scheduling and fact
        # order.
        self.rel_listener: Optional[Callable[[RelKind, int, int], None]] = None
        # Incrementally maintained reflexive CHILD-closure cache:
        # root id -> descendant ids, plus the inverted membership index
        # (id -> cached roots whose set contains it) that makes
        # delta-extension on CHILD insertion cheap.
        self._desc_cache: Dict[int, Set[int]] = {}
        self._desc_containing: Dict[int, Set[int]] = {}
        self.desc_cache_hits = 0
        self.desc_cache_misses = 0
        # Interning tables: method -> local name -> id; (op id, slot) -> port
        # id; and one table per other kind, keyed by ``_KEYS``.
        self._vars: Dict[MethodSig, Dict[str, int]] = {}
        self._ports: Dict[Tuple[int, int], int] = {}
        self._tables: Dict[type, Dict[object, int]] = {cls: {} for cls in _KEYS}
        self.op_specs: Dict[int, OpSpec] = {}
        # Value-category registries (allocation ids).
        self._view_allocs: Set[int] = set()
        self._listener_allocs: Set[int] = set()

    # -- node interning ------------------------------------------------------

    def _add(self, node: Node) -> int:
        self.node_list.append(node)
        return len(self.node_list) - 1

    def _intern(self, cls: type, key: object, *fields: object) -> int:
        table = self._tables[cls]
        i = table.get(key)
        if i is None:
            i = table[key] = self._add(cls(*fields))
        return i

    def locals_of(self, method: MethodSig) -> Dict[str, int]:
        """The live name -> id table of ``method``'s locals; pass it to
        :meth:`local_id` to intern locals without hashing ``method``."""
        table = self._vars.get(method)
        if table is None:
            table = self._vars[method] = {}
        return table

    def local_id(self, table: Dict[str, int], method: MethodSig, name: str) -> int:
        i = table.get(name)
        if i is None:
            i = table[name] = self._add(VarNode(method, name))
        return i

    def var_id(self, method: MethodSig, name: str) -> int:
        return self.local_id(self.locals_of(method), method, name)

    def field_id(self, class_name: str, field_name: str) -> int:
        return self._intern(FieldNode, (class_name, field_name), class_name, field_name)

    def static_field_id(self, class_name: str, field_name: str) -> int:
        key = (class_name, field_name)
        return self._intern(StaticFieldNode, key, class_name, field_name)

    def alloc_id(
        self, site: Site, class_name: str, is_view: bool = False, is_listener: bool = False
    ) -> int:
        table = self._tables[AllocNode]
        i = table.get(site)
        if i is None:
            i = table[site] = self._add(AllocNode(site, class_name))
            if is_view:
                self._view_allocs.add(i)
            if is_listener:
                self._listener_allocs.add(i)
        return i

    def activity_id(self, class_name: str) -> int:
        return self._intern(ActivityNode, class_name, class_name)

    def layout_id_id(self, name: str, value: int) -> int:
        return self._intern(LayoutIdNode, name, name, value)

    def view_id_id(self, name: str, value: int) -> int:
        return self._intern(ViewIdNode, name, name, value)

    def menu_id_id(self, name: str, value: int) -> int:
        return self._intern(MenuIdNode, name, name, value)

    def menu_item_id(
        self, op_site: Site, menu: str, index: int, id_name: Optional[str]
    ) -> int:
        key = (op_site, menu, index)
        return self._intern(MenuItemNode, key, op_site, menu, index, id_name)

    def op_id(self, kind: OpKind, site: Site, spec: OpSpec) -> int:
        table = self._tables[OpNode]
        i = table.get(site)
        if i is None:
            i = table[site] = self._add(OpNode(kind, site))
            self.op_specs[i] = spec
        return i

    def port_id(self, op: int, slot: int) -> int:
        """The receiver (``slot`` :data:`RECV`) or argument port of op ``op``."""
        key = (op, slot)
        i = self._ports.get(key)
        if i is None:
            node = self.node_list[op]
            port = OpRecv(node) if slot == RECV else OpArg(node, slot)
            i = self._ports[key] = self._add(port)
        return i

    def port(self, op: int, slot: int) -> Optional[int]:
        """The id of an existing port of op ``op``, or None."""
        return self._ports.get((op, slot))

    def port_owners(self) -> Iterator[Tuple[int, int]]:
        """(port id, op id) of every port."""
        for (op, _slot), port in self._ports.items():
            yield port, op

    def infl_view_id(
        self,
        op_site: Site,
        layout: str,
        path: Tuple[int, ...],
        view_class: str,
        id_name: Optional[str],
    ) -> int:
        key = (op_site, layout, path)
        return self._intern(InflViewNode, key, op_site, layout, path, view_class, id_name)

    # -- ids and nodes -------------------------------------------------------------

    def id_of(self, node: Node) -> Optional[int]:
        """The id of the interned node equal to ``node``, or None."""
        cls = node.__class__
        if cls is VarNode:
            return self._vars.get(node.method, _NO_IDS).get(node.name)
        if cls is OpRecv or cls is OpArg:
            op = self.id_of(node.op)
            slot = RECV if cls is OpRecv else node.index
            return None if op is None else self._ports.get((op, slot))
        key = _KEYS.get(cls)
        if key is None:
            return None
        i = self._tables[cls].get(key(node))
        if i is not None:
            interned = self.node_list[i]
            if interned is not node and interned != node:
                return None  # same key, other fields differ
        return i

    def _require(self, node: Node) -> int:
        i = self.id_of(node)
        if i is None:
            raise KeyError(f"{node} is not a node of this graph")
        return i

    @property
    def nodes(self) -> NodeSet:
        """Every interned node."""
        return NodeSet(self, range(len(self.node_list)))

    @property
    def view_allocs(self) -> NodeSet:
        """Allocations of view classes."""
        return NodeSet(self, self._view_allocs)

    @property
    def listener_allocs(self) -> NodeSet:
        """Allocations of classes implementing a listener interface."""
        return NodeSet(self, self._listener_allocs)

    # -- accessors -------------------------------------------------------------

    def ids_of_kind(self, cls: type) -> List[int]:
        """Ids of the interned nodes of kind ``cls``, in interning order."""
        return list(self._tables[cls].values())

    def _nodes_of_kind(self, cls: type) -> List[Node]:
        nodes = self.node_list
        return [nodes[i] for i in self._tables[cls].values()]

    def ops(self) -> List[OpNode]:
        return self._nodes_of_kind(OpNode)

    def op_at(self, site: Site) -> Optional[OpNode]:
        i = self._tables[OpNode].get(site)
        return None if i is None else self.node_list[i]

    def op_spec(self, op: OpNode) -> OpSpec:
        return self.op_specs[self._require(op)]

    def allocs(self) -> List[AllocNode]:
        return self._nodes_of_kind(AllocNode)

    def activities(self) -> List[ActivityNode]:
        return self._nodes_of_kind(ActivityNode)

    def layout_id_nodes(self) -> List[LayoutIdNode]:
        return self._nodes_of_kind(LayoutIdNode)

    def view_id_nodes(self) -> List[ViewIdNode]:
        return self._nodes_of_kind(ViewIdNode)

    def menu_id_nodes(self) -> List[MenuIdNode]:
        return self._nodes_of_kind(MenuIdNode)

    def menu_item_nodes(self) -> List[MenuItemNode]:
        return self._nodes_of_kind(MenuItemNode)

    def infl_view_nodes(self) -> List[InflViewNode]:
        return self._nodes_of_kind(InflViewNode)

    def lookup_var(self, method: MethodSig, name: str) -> Optional[VarNode]:
        i = self._vars.get(method, _NO_IDS).get(name)
        return None if i is None else self.node_list[i]

    def lookup_activity(self, class_name: str) -> Optional[ActivityNode]:
        """The activity node of ``class_name``, or None; unlike
        :meth:`activity_id` it never adds a node."""
        i = self._tables[ActivityNode].get(class_name)
        return None if i is None else self.node_list[i]

    def lookup_layout_id(self, name: str) -> Optional[LayoutIdNode]:
        i = self._tables[LayoutIdNode].get(name)
        return None if i is None else self.node_list[i]

    def is_view_id(self, i: int) -> bool:
        """Is node ``i`` a view: an inflated view or a view allocation?"""
        return i in self._view_allocs or self.node_list[i].__class__ is InflViewNode

    def is_view_value(self, value: Node) -> bool:
        """Inflated views and allocations of view classes."""
        if isinstance(value, InflViewNode):
            return True
        return isinstance(value, AllocNode) and self.id_of(value) in self._view_allocs

    # -- flow edges --------------------------------------------------------------

    def add_flow_ids(self, src: int, dst: int, type_filter: Optional[str] = None) -> bool:
        """Add ``src → dst`` between node ids; returns True when the edge
        is new.

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
        i, j = self.id_of(src), self.id_of(dst)
        return self.flow.get(i, _NO_EDGES).get(j)

    def has_flow(self, src: Node, dst: Node) -> bool:
        i, j = self.id_of(src), self.id_of(dst)
        return j in self.flow.get(i, _NO_EDGES)

    def flow_edges(self) -> Iterator[Tuple[Node, Node]]:
        nodes = self.node_list
        for src, out in self.flow.items():
            for dst in out:
                yield nodes[src], nodes[dst]

    def flow_edge_count(self) -> int:
        return self._flow_count

    # -- relationship edges ---------------------------------------------------------
    # Over ids, like flow edges; the node-facing reads below decode.

    def add_rel(self, kind: RelKind, src: int, dst: int) -> bool:
        """Add ``src ⇒ dst`` with label ``kind`` between node ids; True
        when new.

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
        if self.rel_listener is not None:
            self.rel_listener(kind, src, dst)
        return True

    def rel_view(self, kind: RelKind, src: int) -> FrozenSet[int]:
        """The ids ``src`` has ``kind`` edges to: the internal (live) set,
        not a copy. Callers must not mutate it and must not add edges
        of the same kind while iterating."""
        return self._rel[kind].get(src, _NO_ID_SET)  # type: ignore[return-value]

    def rel_back_view(self, kind: RelKind, dst: int) -> FrozenSet[int]:
        """The ids with ``kind`` edges to ``dst``; same caveats as
        :meth:`rel_view`.

        For ``HAS_ID`` this is the id→views inverted index the solver's
        ``FindView`` rules intersect against."""
        return self._rel_back[kind].get(dst, _NO_ID_SET)  # type: ignore[return-value]

    def rel_edge_count(self, kind: RelKind) -> int:
        return sum(len(d) for d in self._rel[kind].values())

    def _reach(self, view: int) -> Set[int]:
        """The reflexive-transitive closure of ``view`` over CHILD edges,
        walked afresh."""
        children = self._rel[RelKind.CHILD]
        seen: Set[int] = set()
        work: List[int] = [view]
        while work:
            current = work.pop()
            if current in seen:
                continue
            seen.add(current)
            work.extend(children.get(current, ()))
        return seen

    def descendants_cached(self, view: int) -> Set[int]:
        """The reflexive descendant ids of ``view``, cache-backed.

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
        cached = self._desc_cache[view] = self._reach(view)
        containing = self._desc_containing
        for member in cached:
            containing.setdefault(member, set()).add(view)
        return cached

    def _extend_descendant_cache(self, parent: int, child: int) -> None:
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
            addition = self._reach(child)
        for root in list(containing):
            cached = self._desc_cache[root]
            new = addition - cached
            if not new:
                continue
            cached |= new
            for member in new:
                self._desc_containing.setdefault(member, set()).add(root)

    # Node-facing reads, for clients of a solved graph: each looks the
    # node up by :meth:`id_of` and decodes through :class:`NodeSet`.

    def rel(self, kind: RelKind, src: Node) -> NodeSet:
        """The nodes ``src`` has ``kind`` edges to."""
        return NodeSet(self, self._rel[kind].get(self.id_of(src), _NO_ID_SET))

    def has_rel(self, kind: RelKind, src: Node, dst: Node) -> bool:
        return self.id_of(dst) in self._rel[kind].get(self.id_of(src), _NO_ID_SET)

    def rel_edges(self, kind: RelKind) -> Iterator[Tuple[Node, Node]]:
        nodes = self.node_list
        for src, dsts in self._rel[kind].items():
            for dst in dsts:
                yield nodes[src], nodes[dst]

    def children_of(self, view: Node) -> NodeSet:
        return self.rel(RelKind.CHILD, view)

    def ids_of(self, view: Node) -> NodeSet:
        return self.rel(RelKind.HAS_ID, view)

    def descendants_of(self, view: Node, include_self: bool = True) -> NodeSet:
        """Reflexive-transitive closure over CHILD edges (``ancestorOf``
        read backwards: returned set = all v with view ancestorOf v),
        walked afresh on every call."""
        i = self._require(view)
        reach = self._reach(i)
        if not include_self:
            reach.discard(i)
        return NodeSet(self, reach)

    # -- summary -----------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        return {
            "nodes": len(self.node_list),
            "flow_edges": self._flow_count,
            "rel_edges": sum(self.rel_edge_count(k) for k in RelKind),
            "ops": len(self._tables[OpNode]),
            "allocs": len(self._tables[AllocNode]),
            "inflated_views": len(self._tables[InflViewNode]),
        }
