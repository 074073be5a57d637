"""SARIF 2.1.0 reporter — GitHub code-scanning annotations for CI.

Emits one run with the full rule catalog (per-file REP004/REP005/REP007 plus the
flow rules REP101–REP106) so uploads via
``github/codeql-action/upload-sarif`` render findings as inline
annotations. New findings are ``error``-level results; baselined findings
are included with a ``suppressions`` entry (reviewed, justified), which
code scanning displays as suppressed rather than open.
"""

from __future__ import annotations

import json
from typing import TextIO

from repro.lint.baseline import BaselineEntry
from repro.lint.engine import REGISTRY, SYNTAX_RULE, UNKNOWN_SUPPRESSION_RULE
from repro.lint.findings import Finding
from repro.lint.flow.rules import FLOW_REGISTRY

#: The published 2.1.0 schema location (validated in tests).
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

SARIF_VERSION = "2.1.0"

#: Results at or past this severity fail code-scanning gates.
_LEVEL = "error"


def _rule_catalog() -> list[dict]:
    """Every known rule id with its one-line description, sorted."""
    catalog: dict[str, str] = {
        SYNTAX_RULE: "syntax error: file could not be parsed",
        UNKNOWN_SUPPRESSION_RULE: "unknown-suppression: suppression names an "
        "unregistered rule",
    }
    for rule_id, rule in REGISTRY.items():
        catalog[rule_id] = rule.title
    for rule_id, rule in FLOW_REGISTRY.items():
        catalog[rule_id] = rule.title
    return [
        {
            "id": rule_id,
            "name": rule_id,
            "shortDescription": {"text": catalog[rule_id]},
            "defaultConfiguration": {"level": _LEVEL},
        }
        for rule_id in sorted(catalog)
    ]


def _result(
    finding: Finding,
    rule_index: dict[str, int],
    suppressed_justification: str | None = None,
) -> dict:
    result: dict = {
        "ruleId": finding.rule,
        "ruleIndex": rule_index.get(finding.rule, -1),
        "level": _LEVEL,
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": max(1, finding.line),
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }
    if suppressed_justification is not None:
        result["suppressions"] = [
            {
                "kind": "external",
                "justification": suppressed_justification,
            }
        ]
    return result


def report_sarif(
    new: list[Finding],
    accepted: list[Finding],
    stale: list[BaselineEntry],
    stream: TextIO,
) -> None:
    """The ``--format sarif`` reporter (same signature as text/json)."""
    rules = _rule_catalog()
    rule_index = {rule["id"]: position for position, rule in enumerate(rules)}
    results = [_result(finding, rule_index) for finding in new]
    for finding in accepted:
        results.append(
            _result(
                finding,
                rule_index,
                suppressed_justification="accepted in lint-baseline.json",
            )
        )
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": rules,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")
