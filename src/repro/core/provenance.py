"""Fact order numbers for witness reconstruction (opt-in).

With ``AnalysisOptions.provenance`` the solver numbers every fact in the
order it was first added, and stores nothing else: no rule, no premises.
The number is written where each kind of fact is inserted and never
feeds back into solving, so both solver modes produce byte-identical
solutions with the table on or off. The witness reconstructor
(:mod:`repro.lint.witness`) rebuilds premises after solving and accepts
only premises numbered below their conclusion.

The solver numbers facts over node ids (:class:`FactOrder`); clients
name facts over nodes. Facts are plain tagged tuples, so they double as
premise references:

* ``("flow", node, value)`` — ``value`` flows to pointer node ``node``
  (the paper's ``flowsTo(value, node)``);
* ``("rel", kind, src, dst)`` — relationship edge ``src ⇒ dst`` with
  label ``kind`` (``ancestorOf`` facts are witnessed as chains of
  ``child`` premises);
* ``("edge", src, dst)`` — a flow edge. Edges the solver made (listener
  callbacks, ``android:onClick`` bindings, factory-method modelling) are
  numbered; edges from program statements are axioms.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Collection, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.graph import ConstraintGraph

FLOW = "flow"
REL = "rel"
EDGE = "edge"

Fact = Tuple[object, ...]

_NONE: Dict[int, int] = {}


def flow_fact(node: object, value: object) -> Fact:
    return (FLOW, node, value)


def rel_fact(kind: object, src: object, dst: object) -> Fact:
    return (REL, kind, src, dst)


def edge_fact(src: object, dst: object) -> Fact:
    return (EDGE, src, dst)


class FactOrder:
    """The order in which one analysis run first added each fact.

    Every table is keyed by node ids, as the solver sees them: ``flow``
    maps node id -> value id -> number (one dict per node, so the
    solver's propagation loop numbers a whole delta with one
    ``dict.update``); ``rel`` maps (kind, src id, dst id) and ``edge``
    (src id, dst id) to a number. ``next`` is the number the next new
    fact gets. :meth:`of` takes a fact over nodes and looks its two
    nodes up in ``graph``.
    """

    __slots__ = ("graph", "flow", "rel", "edge", "next")

    def __init__(self, graph: "ConstraintGraph") -> None:
        self.graph = graph
        self.flow: Dict[int, Dict[int, int]] = {}
        self.rel: Dict[Tuple[object, int, int], int] = {}
        self.edge: Dict[Tuple[int, int], int] = {}
        self.next = 0

    def add_flows(self, node: int, values: Collection[int]) -> None:
        numbers = self.flow.get(node)
        if numbers is None:
            numbers = self.flow[node] = {}
        numbers.update(zip(values, count(self.next)))
        self.next += len(values)

    def add_rel(self, kind: object, src: int, dst: int) -> None:
        self.rel[(kind, src, dst)] = self.next
        self.next += 1

    def add_edge(self, src: int, dst: int) -> None:
        self.edge[(src, dst)] = self.next
        self.next += 1

    def of(self, fact: Fact) -> Optional[int]:
        """The number of ``fact``, or None (an axiom, or not a fact)."""
        # Every kind of fact ends with its two nodes.
        id_of = self.graph.id_of
        src, dst = id_of(fact[-2]), id_of(fact[-1])
        if fact[0] == FLOW:
            return self.flow.get(src, _NONE).get(dst)
        if fact[0] == REL:
            return self.rel.get((fact[1], src, dst))
        return self.edge.get((src, dst))

    def record_count(self) -> int:
        """Facts with an order number."""
        return (
            sum(len(numbers) for numbers in self.flow.values())
            + len(self.rel)
            + len(self.edge)
        )
