"""Provenance-backed lint engine over the GUI reference analysis.

The packages in here turn a solved :class:`~repro.core.results.AnalysisResult`
into consumable diagnostics:

* :mod:`repro.lint.rules` — the rule registry (stable ``GUI001``-style
  ids, severities, rationale) hosting the five checks of Section 6;
* :mod:`repro.lint.engine` — runs enabled rules, applies inline and
  file-based suppressions, dedupes, and orders findings
  deterministically;
* :mod:`repro.lint.witness` — rebuilds step-by-step witness paths from
  the solved graph, ranked by the solver's fact order table
  (``AnalysisOptions.provenance``);
* :mod:`repro.lint.report` — text, JSON (``repro.lint/1``), and SARIF
  2.1.0 exporters plus baseline diffing.

See ``docs/LINT.md`` for the rule catalog and output schemas.
"""

from repro.lint.engine import LintOptions, LintReport, run_lint
from repro.lint.rules import ALL_RULES, Finding, Rule, Severity, rule_by_id
from repro.lint.witness import WitnessStep, reconstruct_witness, render_witness
from repro.lint.report import (
    diff_baseline,
    render_text,
    to_json,
    to_sarif,
    validate_sarif,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintOptions",
    "LintReport",
    "Rule",
    "Severity",
    "WitnessStep",
    "diff_baseline",
    "reconstruct_witness",
    "render_text",
    "render_witness",
    "rule_by_id",
    "run_lint",
    "to_json",
    "to_sarif",
    "validate_sarif",
]
