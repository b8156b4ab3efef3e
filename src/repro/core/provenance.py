"""Fact order numbers for witness reconstruction (opt-in).

With ``AnalysisOptions.provenance`` the solver numbers every fact in the
order it was first added, and stores nothing else: no rule, no premises.
The number is written where each kind of fact is inserted and never
feeds back into solving, so both solver modes produce byte-identical
solutions with the table on or off. The witness reconstructor
(:mod:`repro.lint.witness`) rebuilds premises after solving and accepts
only premises numbered below their conclusion.

Facts are plain tagged tuples, so they double as premise references:

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
from typing import Collection, Dict, Optional, Tuple

FLOW = "flow"
REL = "rel"
EDGE = "edge"

Fact = Tuple[object, ...]


def flow_fact(node: object, value: object) -> Fact:
    return (FLOW, node, value)


def rel_fact(kind: object, src: object, dst: object) -> Fact:
    return (REL, kind, src, dst)


def edge_fact(src: object, dst: object) -> Fact:
    return (EDGE, src, dst)


class FactOrder:
    """The order in which one analysis run first added each fact.

    ``flow`` maps node -> value -> number (one dict per node, so the
    solver's propagation loop numbers a whole delta with one
    ``dict.update``); ``rel`` and ``edge`` map the fact's fields to its
    number. ``next`` is the number the next new fact gets.
    """

    __slots__ = ("flow", "rel", "edge", "next")

    def __init__(self) -> None:
        self.flow: Dict[object, Dict[object, int]] = {}
        self.rel: Dict[Tuple[object, object, object], int] = {}
        self.edge: Dict[Tuple[object, object], int] = {}
        self.next = 0

    def add_flows(self, node: object, values: Collection[object]) -> None:
        self.flow.setdefault(node, {}).update(zip(values, count(self.next)))
        self.next += len(values)

    def add_rel(self, kind: object, src: object, dst: object) -> None:
        self.rel[(kind, src, dst)] = self.next
        self.next += 1

    def add_edge(self, src: object, dst: object) -> None:
        self.edge[(src, dst)] = self.next
        self.next += 1

    def of(self, fact: Fact) -> Optional[int]:
        """The number of ``fact``, or None (an axiom, or not a fact)."""
        if fact[0] == FLOW:
            return self.flow.get(fact[1], {}).get(fact[2])
        return (self.rel if fact[0] == REL else self.edge).get(fact[1:])  # type: ignore

    def record_count(self) -> int:
        """Facts with an order number."""
        return (
            sum(len(numbers) for numbers in self.flow.values())
            + len(self.rel)
            + len(self.edge)
        )
