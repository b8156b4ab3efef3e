"""Canonical telemetry names.

Every span, counter, and event the instrumentation emits is named
here, so the schema in ``docs/OBSERVABILITY.md`` and the rule table in
``docs/ALGORITHM.md`` have a single source of truth to reference.
Renaming a constant here is a schema change and must be reflected in
both documents.
"""

from __future__ import annotations

from typing import Dict

from repro.platform.api import OpKind

# -- phase spans (top level, one per analysis stage) -------------------------

PHASE_LOAD = "load"  # frontend: project directory -> AndroidApp
PHASE_BUILD = "build"  # constraint-graph construction (builder.py)
PHASE_SOLVE = "solve"  # the fixed-point solver (analysis.py)
PHASE_CLIENTS = "clients"  # Section 6 clients (tuples/transitions/checks/taint)
PHASE_LINT = "lint"  # lint rule evaluation (lint/engine.py), attrs: app
SPAN_APP = "app"  # bench harness: one analyzed app (attrs: app)

# -- solver events -----------------------------------------------------------

# One per fixed-point round, attrs: round, rules_fired, values_added,
# flow_edges_added, rel_edges_added, work_items, worklist_depth,
# ops_scheduled, ops_skipped.
EVENT_ROUND = "solver.round"

# -- solver counters ---------------------------------------------------------

COUNTER_ROUNDS = "solver.rounds"
COUNTER_VALUES_ADDED = "solver.values_added"
COUNTER_WORK_ITEMS = "solver.work_items"
COUNTER_FLOW_EDGES_ADDED = "solver.flow_edges_added"
COUNTER_REL_EDGES_ADDED = "solver.rel_edges_added"
COUNTER_XML_ONCLICK_BOUND = "solver.xml_onclick_bound"
# Bumped once per solve() that hit AnalysisOptions.max_rounds without
# reaching the fixed point (the convergence warning).
COUNTER_MAX_ROUNDS_EXHAUSTED = "solver.max_rounds_exhausted"
# Facts with an order number (``core/provenance.FactOrder``), emitted once
# per solve() and only when ``AnalysisOptions.provenance`` is enabled.
COUNTER_PROV_FACTS = "solver.provenance_facts"

# -- batch-runner span/event/counters ----------------------------------------
#
# Emitted by ``repro.runner.run_batch`` in the *parent* process (worker
# processes never inherit the tracer). ``batch.apps`` counts the
# targets submitted; ``batch.failed``/``batch.timeout`` count final
# quarantined outcomes; ``batch.retries`` counts relaunches. One
# ``batch.app`` event fires per finished app (attrs: app, status,
# attempts, seconds).

SPAN_BATCH = "batch"  # the whole batch run, attrs: jobs
EVENT_BATCH_APP = "batch.app"
COUNTER_BATCH_APPS = "batch.apps"
COUNTER_BATCH_FAILED = "batch.failed"
COUNTER_BATCH_TIMEOUT = "batch.timeout"
COUNTER_BATCH_RETRIES = "batch.retries"

# -- lint counters -----------------------------------------------------------
#
# Emitted once per run_lint() with that run's totals (after severity
# filtering, suppression, and dedupe).

COUNTER_LINT_FINDINGS = "lint.findings"
COUNTER_LINT_SUPPRESSED = "lint.suppressed"

# -- scheduler counters ------------------------------------------------------
#
# ``ops_scheduled`` counts rule evaluations actually run; ``ops_skipped``
# counts the ops a round left out because none of the inputs their rule
# read had changed. Under ``AnalysisOptions(solver="naive")`` every round
# schedules every op, so ops_skipped is always 0 and ops_scheduled ==
# rounds * |ops|.

COUNTER_OPS_SCHEDULED = "solver.ops_scheduled"
COUNTER_OPS_SKIPPED = "solver.ops_skipped"

# -- index/cache hit-rate counters -------------------------------------------
#
# Emitted once per solve() with the totals accumulated during that run.

COUNTER_DESC_CACHE_HITS = "graph.descendant_cache_hits"
COUNTER_DESC_CACHE_MISSES = "graph.descendant_cache_misses"

# -- builder counters --------------------------------------------------------

COUNTER_BUILD_METHODS = "build.methods"
COUNTER_BUILD_STATEMENTS = "build.statements"
COUNTER_BUILD_FLOW_EDGES = "build.flow_edges"
COUNTER_BUILD_OPS = "build.ops"

# -- per-inference-rule counters ---------------------------------------------
#
# ``rule.evaluated.<Kind>`` counts how many times the solver ran the
# rule for an operation node of the kind (once per op per round);
# ``rule.fired.<Kind>`` counts the evaluations that changed the
# solution (added a value, flow edge, or relationship edge).

_RULE_FIRED_PREFIX = "rule.fired."
_RULE_EVALUATED_PREFIX = "rule.evaluated."

RULE_FIRED: Dict[OpKind, str] = {
    kind: _RULE_FIRED_PREFIX + kind.value for kind in OpKind
}
RULE_EVALUATED: Dict[OpKind, str] = {
    kind: _RULE_EVALUATED_PREFIX + kind.value for kind in OpKind
}
