"""Lint rule registry: the checker clients of Section 6 as lint rules.

Five checks, each a direct consumer of the reference analysis:

* **GUI001 unresolved-lookup** — a ``findViewById`` whose static result
  set is empty: the searched id never appears in any hierarchy reaching
  the receiver (typo'd id, missing ``setContentView``, wrong layout);
* **GUI002 ambiguous-lookup** — a find-view result set with several
  distinct views: duplicate ids reachable from one lookup, a common
  source of "wrong widget" bugs;
* **GUI003 bad-cast** — a cast applied to a find-view result where *no*
  value in the incoming set satisfies the cast type: guaranteed
  ``ClassCastException`` when executed;
* **GUI004 suspicious-cast** — some but not all incoming values satisfy
  the cast (possible ``ClassCastException``);
* **GUI005 dead-listener** — a listener allocation that never reaches
  any set-listener operation (handler code that can never run).

Rule ids are stable API: reports, suppressions, and baselines key on
them, so an id is never reused or renumbered (retired rules leave a
hole). Each finding carries a *subject fact* — the provenance fact
whose derivation best explains the diagnosis — which the engine expands
into a witness path when the analysis ran with provenance enabled.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.nodes import OpArg, OpRecv, Site, ViewIdNode, value_is_a
from repro.core.provenance import Fact, flow_fact
from repro.core.results import AnalysisResult
from repro.platform.api import OpKind


class Severity(enum.Enum):
    """Finding severity; order is strictness (ERROR most severe)."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1}[self.value]

    def sarif_level(self) -> str:
        return self.value


@dataclass
class Finding:
    """One lint finding.

    ``fact`` is the provenance fact to explain (None when the finding
    reports an *absence*, which has no single derivation); ``witness``
    is filled in by the engine when provenance is available.
    """

    rule_id: str
    severity: Severity
    site: Site
    message: str
    fact: Optional[Fact] = None
    witness: List[str] = field(default_factory=list)

    @property
    def uid(self) -> str:
        """Stable identity: rule + content hash of (site, message).

        Survives unrelated edits (it has no dependence on finding
        order) and is what suppression files and baselines reference.
        """
        digest = hashlib.sha1(
            f"{self.rule_id}|{self.site}|{self.message}".encode("utf-8")
        ).hexdigest()[:10]
        return f"{self.rule_id}-{digest}"

    def sort_key(self) -> Tuple[str, str, int, int, str, str]:
        """Deterministic order: by location, then rule, then message."""
        return (
            self.site.method.class_name,
            self.site.method.name,
            self.site.line if self.site.line is not None else -1,
            self.site.index,
            self.rule_id,
            self.message,
        )

    def __str__(self) -> str:
        return (
            f"{self.severity.value} {self.rule_id} [{self.uid}] "
            f"{self.site}: {self.message}"
        )


RuleCheck = Callable[[AnalysisResult], Iterator[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    id: str
    name: str
    severity: Severity
    summary: str
    rationale: str
    check: RuleCheck


# -- the checks ---------------------------------------------------------------


def _lookup_ops(result: AnalysisResult):
    """Find-view ops with resolved inputs, with their id names."""
    for op in result.ops_of_kind(OpKind.FINDVIEW1, OpKind.FINDVIEW2):
        ids = {
            str(v)
            for v in result.values_at(OpArg(op, 0))
            if isinstance(v, ViewIdNode)
        }
        receivers = result.values_at(OpRecv(op))
        # Only meaningful when the inputs resolved at all.
        if ids and receivers:
            yield op, ids, receivers


def _check_unresolved_lookup(result: AnalysisResult) -> Iterator[Finding]:
    for op, ids, receivers in _lookup_ops(result):
        if result.op_results(op):
            continue
        recv = min(receivers, key=str)
        yield Finding(
            rule_id="GUI001",
            severity=Severity.ERROR,
            site=op.site,
            message=(
                f"findViewById({', '.join(sorted(ids))}) can never "
                "resolve to a view"
            ),
            # Absence of a result has no derivation; witness why the
            # search starts where it does instead.
            fact=flow_fact(OpRecv(op), recv),
        )


def _check_ambiguous_lookup(result: AnalysisResult) -> Iterator[Finding]:
    for op, ids, _receivers in _lookup_ops(result):
        results = result.op_results(op)
        if len(results) <= 1:
            continue
        names = ", ".join(sorted(str(v) for v in results))
        yield Finding(
            rule_id="GUI002",
            severity=Severity.WARNING,
            site=op.site,
            message=(
                f"findViewById({', '.join(sorted(ids))}) may return any "
                f"of: {names}"
            ),
            fact=flow_fact(op, min(results, key=str)),
        )


def _cast_sites(result: AnalysisResult):
    """Casts over view values: (site, stmt, node, incoming, passing)."""
    hierarchy = result.hierarchy
    for sig, index, stmt in result.cast_sites:
        node = result.graph.lookup_var(sig, stmt.rhs)
        if node is None:
            continue
        incoming = [v for v in result.values_at(node) if result.is_view_value(v)]
        if not incoming:
            continue
        passing = [v for v in incoming if value_is_a(hierarchy, v, stmt.type_name)]
        yield Site(sig, index, stmt.line), stmt, node, incoming, passing


def _check_bad_cast(result: AnalysisResult) -> Iterator[Finding]:
    for site, stmt, node, incoming, passing in _cast_sites(result):
        if passing:
            continue
        yield Finding(
            rule_id="GUI003",
            severity=Severity.ERROR,
            site=site,
            message=(
                f"cast to {stmt.type_name} fails for every view "
                f"reaching {stmt.rhs!r} "
                f"({', '.join(sorted(str(v) for v in incoming))})"
            ),
            fact=flow_fact(node, min(incoming, key=str)),
        )


def _check_suspicious_cast(result: AnalysisResult) -> Iterator[Finding]:
    for site, stmt, node, incoming, passing in _cast_sites(result):
        if not passing or len(passing) >= len(incoming):
            continue
        failing = set(incoming) - set(passing)
        yield Finding(
            rule_id="GUI004",
            severity=Severity.WARNING,
            site=site,
            message=(
                f"cast to {stmt.type_name} fails for "
                f"{', '.join(sorted(str(v) for v in failing))}"
            ),
            fact=flow_fact(node, min(failing, key=str)),
        )


def _check_dead_listener(result: AnalysisResult) -> Iterator[Finding]:
    reaching: set = set()
    for op in result.ops_of_kind(OpKind.SETLISTENER):
        reaching.update(result.op_listener_args(op))
    for alloc in result.graph.listener_allocs:
        if alloc in reaching:
            continue
        yield Finding(
            rule_id="GUI005",
            severity=Severity.WARNING,
            site=alloc.site,
            message=f"listener {alloc} is never registered on any view",
            fact=flow_fact(alloc, alloc),
        )


# -- the registry -------------------------------------------------------------

ALL_RULES: List[Rule] = [
    Rule(
        id="GUI001",
        name="unresolved-lookup",
        severity=Severity.ERROR,
        summary="findViewById can never resolve to a view",
        rationale=(
            "The searched id never appears in any hierarchy reaching the "
            "receiver: a typo'd id, missing setContentView, or wrong "
            "layout. The call returns null at runtime."
        ),
        check=_check_unresolved_lookup,
    ),
    Rule(
        id="GUI002",
        name="ambiguous-lookup",
        severity=Severity.WARNING,
        summary="findViewById may return one of several distinct views",
        rationale=(
            "Duplicate ids are reachable from one lookup; which widget is "
            "returned depends on traversal order, a common source of "
            "wrong-widget bugs."
        ),
        check=_check_ambiguous_lookup,
    ),
    Rule(
        id="GUI003",
        name="bad-cast",
        severity=Severity.ERROR,
        summary="cast fails for every view reaching it",
        rationale=(
            "No value in the incoming set satisfies the cast type: a "
            "guaranteed ClassCastException whenever the statement executes."
        ),
        check=_check_bad_cast,
    ),
    Rule(
        id="GUI004",
        name="suspicious-cast",
        severity=Severity.WARNING,
        summary="cast fails for some views reaching it",
        rationale=(
            "Some but not all incoming values satisfy the cast type: a "
            "possible ClassCastException depending on which view arrives."
        ),
        check=_check_suspicious_cast,
    ),
    Rule(
        id="GUI005",
        name="dead-listener",
        severity=Severity.WARNING,
        summary="listener is never registered on any view",
        rationale=(
            "The allocated listener never reaches a set-listener "
            "operation, so its handler code can never run."
        ),
        check=_check_dead_listener,
    ),
]

_RULES_BY_ID: Dict[str, Rule] = {r.id: r for r in ALL_RULES}
_RULES_BY_NAME: Dict[str, Rule] = {r.name: r for r in ALL_RULES}


def rule_by_id(ident: str) -> Optional[Rule]:
    """Look a rule up by id (``GUI003``) or name (``bad-cast``)."""
    return _RULES_BY_ID.get(ident) or _RULES_BY_NAME.get(ident)
