"""Structural validation of the SARIF 2.1.0 reporter."""

from __future__ import annotations

import io
import json

from repro.lint.baseline import BaselineEntry
from repro.lint.engine import REGISTRY
from repro.lint.findings import Finding
from repro.lint.flow.rules import FLOW_REGISTRY
from repro.lint.sarif import SARIF_SCHEMA, SARIF_VERSION, report_sarif


def _finding(rule="REP101", path="src/repro/tuners/x.py", line=7, col=4):
    return Finding(rule=rule, path=path, line=line, col=col, message="msg")


def _render(new, accepted=(), stale=()):
    stream = io.StringIO()
    report_sarif(list(new), list(accepted), list(stale), stream)
    return json.loads(stream.getvalue())


class TestSarifStructure:
    def test_required_toplevel_shape(self):
        doc = _render([_finding()])
        assert doc["version"] == SARIF_VERSION
        assert doc["$schema"] == SARIF_SCHEMA
        assert len(doc["runs"]) == 1
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro.lint"
        assert isinstance(driver["rules"], list)

    def test_rule_catalog_covers_every_rule(self):
        doc = _render([])
        ids = {rule["id"] for rule in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert set(REGISTRY) <= ids
        assert set(FLOW_REGISTRY) <= ids
        assert {"REP000", "REP008"} <= ids
        assert not {"REP001", "REP002", "REP003", "REP006"} & ids  # retired
        for rule in doc["runs"][0]["tool"]["driver"]["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] == "error"

    def test_result_location_and_rule_index(self):
        doc = _render([_finding(rule="REP104", line=12, col=3)])
        run = doc["runs"][0]
        result = run["results"][0]
        assert result["ruleId"] == "REP104"
        assert (
            run["tool"]["driver"]["rules"][result["ruleIndex"]]["id"] == "REP104"
        )
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/tuners/x.py"
        assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert location["region"]["startLine"] == 12
        assert location["region"]["startColumn"] == 4  # col is 0-based

    def test_accepted_findings_are_suppressed_results(self):
        doc = _render([_finding(rule="REP104")], accepted=[_finding(rule="REP101")])
        results = doc["runs"][0]["results"]
        assert len(results) == 2
        open_results = [r for r in results if "suppressions" not in r]
        suppressed = [r for r in results if "suppressions" in r]
        assert [r["ruleId"] for r in open_results] == ["REP104"]
        assert [r["ruleId"] for r in suppressed] == ["REP101"]
        assert suppressed[0]["suppressions"][0]["kind"] == "external"
        assert suppressed[0]["suppressions"][0]["justification"]

    def test_stale_entries_do_not_become_results(self):
        stale = [BaselineEntry(path="src/x.py", rule="REP101", message="old")]
        doc = _render([], stale=stale)
        assert doc["runs"][0]["results"] == []

    def test_line_floor_is_one(self):
        doc = _render([_finding(line=0)])
        region = doc["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["region"]
        assert region["startLine"] == 1
