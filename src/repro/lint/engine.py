"""The lint engine: rule selection, suppressions, deterministic output.

``run_lint`` evaluates the enabled rules of the registry
(:mod:`repro.lint.rules`) over a solved analysis, drops suppressed
findings, dedupes, attaches witness paths when the analysis ran with
provenance enabled, and returns findings in a stable order — identical
across solver modes (``naive``/``seminaive``) and across runs (the
sort key and finding uids depend only on finding content, never on set
iteration order).

Suppression comes in two forms:

* **inline** — a ``lint:disable`` comment in the source line being
  flagged: ``// lint:disable`` silences every rule on that line,
  ``// lint:disable=GUI001,GUI005`` only the listed rules/names.
  Findings are matched to source lines via the file that declares the
  finding's class (``AndroidApp.sources``);
* **file-based** — a suppression file (``--suppress``) with one entry
  per line: either a finding uid (``GUI003-1a2b3c4d5e``) or
  ``<rule> <Class>:<line>`` (rule id or name; ``Class`` is the simple
  or qualified class name). ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.results import AnalysisResult
from repro.errors import ReproError
from repro.lint.rules import ALL_RULES, Finding, Rule, Severity, rule_by_id
from repro.lint.witness import Explainer, reconstruct_witness, render_witness
from repro.obs import names as obs_names
from repro.obs.tracer import Tracer, active as active_tracer

_DISABLE_RE = re.compile(r"lint:disable(?:=([\w\-,]+))?")
_CLASS_RE = re.compile(r"\bclass\s+([A-Za-z_]\w*)")


@dataclass
class LintOptions:
    """Configuration for one lint run."""

    # Rule ids/names to run; None = every registered rule.
    rules: Optional[Sequence[str]] = None
    # Rule ids/names to skip (applied after ``rules``).
    disabled: Sequence[str] = ()
    # Drop findings less severe than this (ERROR > WARNING).
    min_severity: Optional[Severity] = None
    # Attach witness paths (needs AnalysisOptions.provenance).
    witness: bool = True
    # Text of a suppression file (already read by the caller).
    suppress_text: Optional[str] = None


@dataclass
class LintReport:
    """The outcome of one lint run."""

    app_name: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    rules_run: List[Rule] = field(default_factory=list)
    # simple class name -> project-relative source path, for reporters
    # that emit file locations (SARIF artifactLocation).
    file_by_class: Dict[str, str] = field(default_factory=dict)

    def by_rule(self, ident: str) -> List[Finding]:
        rule = rule_by_id(ident)
        wanted = rule.id if rule is not None else ident
        return [f for f in self.findings if f.rule_id == wanted]

    def finding(self, uid: str) -> Optional[Finding]:
        for f in self.findings:
            if f.uid == uid:
                return f
        return None

    def __len__(self) -> int:
        return len(self.findings)


class SuppressionIndex:
    """Resolves whether a finding is suppressed.

    Built once per run from the app's retained sources (inline
    comments) and an optional suppression-file text.
    """

    def __init__(self, result: AnalysisResult, suppress_text: Optional[str]):
        # (simple class name, line) -> rule ids suppressed there;
        # empty set means "all rules".
        self._inline: Dict[Tuple[str, int], Set[str]] = {}
        for source in getattr(result.app, "sources", ()):
            classes = _CLASS_RE.findall(source.text)
            if not classes:
                continue
            for lineno, line in enumerate(source.text.splitlines(), start=1):
                m = _DISABLE_RE.search(line)
                if m is None:
                    continue
                rules = _parse_rule_list(m.group(1))
                for cls in classes:
                    key = (cls, lineno)
                    if rules is None:
                        self._inline[key] = set()
                    elif key not in self._inline or self._inline[key]:
                        self._inline.setdefault(key, set()).update(rules)

        self._uids: Set[str] = set()
        # (rule id, class match, line) from suppression-file entries.
        self._entries: List[Tuple[str, str, int]] = []
        for raw in (suppress_text or "").splitlines():
            entry = raw.split("#", 1)[0].strip()
            if not entry:
                continue
            parts = entry.split()
            if len(parts) == 1:
                self._uids.add(parts[0])
                continue
            rule = rule_by_id(parts[0])
            loc = parts[1].rsplit(":", 1)
            if rule is None or len(loc) != 2 or not loc[1].isdigit():
                continue  # malformed entries are inert, not fatal
            self._entries.append((rule.id, loc[0], int(loc[1])))

    def suppresses(self, finding: Finding) -> bool:
        if finding.uid in self._uids:
            return True
        cls = finding.site.method.class_name
        simple = cls.rsplit(".", 1)[-1]
        line = finding.site.line
        if line is not None:
            rules = self._inline.get((simple, line))
            if rules is not None and (not rules or finding.rule_id in rules):
                return True
        for rule_id, cls_match, entry_line in self._entries:
            if rule_id != finding.rule_id or entry_line != line:
                continue
            if cls_match == cls or cls_match == simple:
                return True
        return False


def _parse_rule_list(spec: Optional[str]) -> Optional[Set[str]]:
    """``GUI001,bad-cast`` -> {'GUI001', 'GUI003'}; None = all rules."""
    if spec is None:
        return None
    ids: Set[str] = set()
    for token in spec.split(","):
        rule = rule_by_id(token.strip())
        if rule is not None:
            ids.add(rule.id)
    return ids


def _rule_ids(idents: Sequence[str]) -> Set[str]:
    """Registry ids of the rules named (by id or name) in ``idents``."""
    ids: Set[str] = set()
    for ident in idents:
        rule = rule_by_id(ident)
        if rule is None:
            raise ReproError(f"unknown lint rule: {ident!r}")
        ids.add(rule.id)
    return ids


def select_rules(options: LintOptions) -> List[Rule]:
    """The rules a run will evaluate, in registry order. Selecting none
    is an input error rather than an empty report."""
    enabled = None if options.rules is None else _rule_ids(options.rules)
    disabled = _rule_ids(options.disabled)
    rules = [
        r
        for r in ALL_RULES
        if (enabled is None or r.id in enabled) and r.id not in disabled
    ]
    if not rules:
        raise ReproError("no lint rule selected")
    return rules


def run_lint(
    result: AnalysisResult,
    options: Optional[LintOptions] = None,
    tracer: Optional[Tracer] = None,
) -> LintReport:
    """Evaluate lint rules over a solved analysis."""
    options = options or LintOptions()
    tracer = tracer if tracer is not None else active_tracer()
    rules = select_rules(options)
    report = LintReport(app_name=result.app.name, rules_run=rules)
    for source in getattr(result.app, "sources", ()):
        for cls in _CLASS_RE.findall(source.text):
            report.file_by_class.setdefault(cls, source.path)

    def _run() -> None:
        raw: List[Finding] = []
        for rule in rules:
            raw.extend(rule.check(result))
        if options.min_severity is not None:
            raw = [
                f
                for f in raw
                if f.severity.rank <= options.min_severity.rank
            ]
        suppressions = SuppressionIndex(result, options.suppress_text)
        seen: Set[str] = set()
        kept: List[Finding] = []
        for finding in sorted(raw, key=Finding.sort_key):
            if finding.uid in seen:
                continue  # dedupe identical findings
            seen.add(finding.uid)
            if suppressions.suppresses(finding):
                report.suppressed.append(finding)
            else:
                kept.append(finding)
        if options.witness and result.provenance is not None:
            # One explainer per run: findings share premises.
            explainer = Explainer(result)
            for finding in kept:
                if finding.fact is not None:
                    finding.witness = render_witness(
                        reconstruct_witness(result, finding.fact, explainer=explainer)
                    )
        report.findings = kept

    if tracer is None:
        _run()
    else:
        with tracer.span(obs_names.PHASE_LINT, app=result.app.name):
            _run()
        tracer.counter(obs_names.COUNTER_LINT_FINDINGS, len(report.findings))
        tracer.counter(
            obs_names.COUNTER_LINT_SUPPRESSED, len(report.suppressed)
        )
    return report
