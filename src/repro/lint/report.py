"""Lint reporting: text, JSON (``repro.lint/1``), SARIF 2.1.0, baselines.

Three exporters over a :class:`~repro.lint.engine.LintReport`:

* :func:`render_text` — human-readable lines, optionally with the
  witness path under each finding;
* :func:`to_json` — the ``repro.lint/1`` document (schema in
  ``docs/LINT.md``), the stable machine interface and the baseline
  format;
* :func:`to_sarif` — a SARIF 2.1.0 ``sarifLog`` with the rule catalog
  in ``tool.driver.rules``, one ``result`` per finding, and the witness
  path as a ``codeFlow``. :func:`validate_sarif` is a dependency-free
  structural validator for the subset this exporter emits (CI runs it
  where the ``jsonschema`` package is unavailable).

Baselines: :func:`diff_baseline` compares current findings against a
previously exported ``repro.lint/1`` document by finding uid, yielding
(new, fixed) — the reviewable delta for CI gating.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.lint.engine import LintReport
from repro.lint.rules import Finding

LINT_SCHEMA = "repro.lint/1"
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_NAME = "repro-gui-lint"
_TOOL_URI = "https://github.com/example/repro"


# -- text ---------------------------------------------------------------------


def render_text(report: LintReport, witness: bool = True) -> str:
    """Human-readable report, one finding per line (+ witness lines)."""
    lines: List[str] = []
    for finding in report.findings:
        lines.append(str(finding))
        if witness and finding.witness:
            lines.append("  witness:")
            lines.extend("  " + w for w in finding.witness)
    lines.append(
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed "
        f"({len(report.rules_run)} rules run)"
    )
    return "\n".join(lines)


# -- JSON (repro.lint/1) ------------------------------------------------------


def _site_json(finding: Finding) -> Dict[str, object]:
    site = finding.site
    return {
        "class": site.method.class_name,
        "method": site.method.name,
        "arity": site.method.arity,
        "index": site.index,
        "line": site.line,
    }


def _finding_json(finding: Finding) -> Dict[str, object]:
    return {
        "uid": finding.uid,
        "rule": finding.rule_id,
        "severity": finding.severity.value,
        "site": _site_json(finding),
        "message": finding.message,
        "witness": list(finding.witness),
    }


def to_json(report: LintReport) -> Dict[str, object]:
    """The ``repro.lint/1`` document (also the baseline format)."""
    return {
        "schema": LINT_SCHEMA,
        "app": report.app_name,
        "rules_run": [r.id for r in report.rules_run],
        "findings": [_finding_json(f) for f in report.findings],
        "suppressed": [f.uid for f in report.suppressed],
    }


# -- SARIF 2.1.0 --------------------------------------------------------------


def _sarif_location(
    finding: Finding, file_by_class: Dict[str, str]
) -> Dict[str, object]:
    site = finding.site
    simple = site.method.class_name.rsplit(".", 1)[-1]
    uri = file_by_class.get(simple, f"{simple}.alite")
    region: Dict[str, object] = {"startLine": site.line or 1}
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": uri},
            "region": region,
        },
        "logicalLocations": [
            {
                "fullyQualifiedName": str(site.method),
                "kind": "function",
            }
        ],
    }


def _sarif_code_flow(finding: Finding) -> Dict[str, object]:
    # One threadFlow whose locations narrate the witness steps; SARIF
    # requires each threadFlowLocation to carry a location, so the
    # narration reuses the finding's site.
    return {
        "message": {"text": "derivation witness (premises first)"},
        "threadFlows": [
            {
                "locations": [
                    {
                        "location": {
                            "message": {"text": step.strip()},
                        }
                    }
                    for step in finding.witness
                ]
            }
        ],
    }


def to_sarif(report: LintReport) -> Dict[str, object]:
    """A SARIF 2.1.0 ``sarifLog`` for one lint run."""
    rules = [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {"level": rule.severity.sarif_level()},
        }
        for rule in report.rules_run
    ]
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = []
    for finding in report.findings:
        result: Dict[str, object] = {
            "ruleId": finding.rule_id,
            "ruleIndex": rule_index.get(finding.rule_id, -1),
            "level": finding.severity.sarif_level(),
            "message": {"text": finding.message},
            "locations": [
                _sarif_location(finding, report.file_by_class)
            ],
            "partialFingerprints": {"reproLintUid/v1": finding.uid},
        }
        if finding.witness:
            result["codeFlows"] = [_sarif_code_flow(finding)]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": _TOOL_URI,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def validate_sarif(doc: object) -> List[str]:
    """Structural SARIF 2.1.0 checks for the subset :func:`to_sarif` emits.

    Returns a list of problems (empty = valid). Not a full JSON-Schema
    validation — it enforces the required shape of ``sarifLog``,
    ``run``, ``tool.driver``, ``reportingDescriptor``, and ``result``
    objects, which is what CI needs without the ``jsonschema`` package.
    """
    problems: List[str] = []

    def err(msg: str) -> None:
        problems.append(msg)

    if not isinstance(doc, dict):
        return ["sarifLog: not an object"]
    if doc.get("version") != SARIF_VERSION:
        err(f"sarifLog.version: expected {SARIF_VERSION!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return problems + ["sarifLog.runs: missing or empty"]
    for ri, run in enumerate(runs):
        where = f"runs[{ri}]"
        if not isinstance(run, dict):
            err(f"{where}: not an object")
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(
            run.get("tool"), dict
        ) else None
        if not isinstance(driver, dict) or not isinstance(
            driver.get("name"), str
        ):
            err(f"{where}.tool.driver.name: missing")
            driver = {}
        rules = driver.get("rules", [])
        rule_ids: List[str] = []
        if not isinstance(rules, list):
            err(f"{where}.tool.driver.rules: not an array")
            rules = []
        for qi, rule in enumerate(rules):
            rwhere = f"{where}.tool.driver.rules[{qi}]"
            if not isinstance(rule, dict) or not isinstance(
                rule.get("id"), str
            ):
                err(f"{rwhere}.id: missing")
                continue
            rule_ids.append(rule["id"])
            level = rule.get("defaultConfiguration", {}).get("level")
            if level not in ("none", "note", "warning", "error"):
                err(f"{rwhere}.defaultConfiguration.level: {level!r}")
        results = run.get("results")
        if not isinstance(results, list):
            err(f"{where}.results: missing (emit [] when clean)")
            continue
        for fi, result in enumerate(results):
            fwhere = f"{where}.results[{fi}]"
            if not isinstance(result, dict):
                err(f"{fwhere}: not an object")
                continue
            message = result.get("message")
            if not isinstance(message, dict) or not isinstance(
                message.get("text"), str
            ):
                err(f"{fwhere}.message.text: missing")
            if result.get("level") not in ("none", "note", "warning", "error"):
                err(f"{fwhere}.level: {result.get('level')!r}")
            rid = result.get("ruleId")
            if not isinstance(rid, str):
                err(f"{fwhere}.ruleId: missing")
            elif rule_ids and rid not in rule_ids:
                err(f"{fwhere}.ruleId: {rid!r} not in driver.rules")
            index = result.get("ruleIndex")
            if index is not None and (
                not isinstance(index, int)
                or index < 0
                or index >= len(rule_ids)
            ):
                err(f"{fwhere}.ruleIndex: {index!r} out of range")
            for li, loc in enumerate(result.get("locations", [])):
                lwhere = f"{fwhere}.locations[{li}]"
                phys = loc.get("physicalLocation") if isinstance(
                    loc, dict
                ) else None
                if not isinstance(phys, dict):
                    err(f"{lwhere}.physicalLocation: missing")
                    continue
                art = phys.get("artifactLocation")
                if not isinstance(art, dict) or not isinstance(
                    art.get("uri"), str
                ):
                    err(f"{lwhere}.physicalLocation.artifactLocation.uri")
                region = phys.get("region")
                if region is not None and (
                    not isinstance(region, dict)
                    or not isinstance(region.get("startLine"), int)
                    or region["startLine"] < 1
                ):
                    err(f"{lwhere}.physicalLocation.region.startLine")
            for ci, flow in enumerate(result.get("codeFlows", [])):
                cwhere = f"{fwhere}.codeFlows[{ci}]"
                threads = flow.get("threadFlows") if isinstance(
                    flow, dict
                ) else None
                if not isinstance(threads, list) or not threads:
                    err(f"{cwhere}.threadFlows: missing or empty")
                    continue
                for ti, thread in enumerate(threads):
                    locs = thread.get("locations") if isinstance(
                        thread, dict
                    ) else None
                    if not isinstance(locs, list) or not locs:
                        err(
                            f"{cwhere}.threadFlows[{ti}].locations: "
                            "missing or empty"
                        )
    return problems


# -- baselines ----------------------------------------------------------------


def diff_baseline(
    report: LintReport, baseline: Dict[str, object]
) -> Tuple[List[Finding], List[str]]:
    """Compare findings to a previously exported ``repro.lint/1`` doc.

    Returns ``(new, fixed)``: findings whose uid is absent from the
    baseline, and baseline uids no longer reported.
    """
    schema = baseline.get("schema") if isinstance(baseline, dict) else None
    if schema != LINT_SCHEMA:
        raise ReproError(f"baseline is not a {LINT_SCHEMA} document (schema={schema!r})")
    findings = baseline.get("findings", [])
    if not isinstance(findings, list):
        raise ReproError("baseline findings are not a list")
    known = {
        f["uid"] for f in findings if isinstance(f, dict) and isinstance(f.get("uid"), str)
    }
    current = {f.uid for f in report.findings}
    new = [f for f in report.findings if f.uid not in known]
    fixed = sorted(known - current)
    return new, fixed
