"""Fixture-driven tests for the per-file rules and the zero-hop cases of
REP101, REP102 and REP104.

Each fixture under ``fixtures/`` marks the lines it expects to be flagged
with a trailing ``# repro-lint-expect: REPxxx`` comment (the marker syntax
deliberately cannot collide with the ``# repro-lint: off`` suppression
syntax). The harness lints each fixture, with every rule, as a program of
one module whose path is *relative to the fixture root*, so scoped
directories (``tuners/``, ``core/``, ``optimizer/``) exercise the rules'
path scoping exactly as they apply to ``src/repro/...``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint import LintEngine

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT_RE = re.compile(r"#\s*repro-lint-expect:\s*(?P<rules>[A-Z0-9_,\s]+)")

ALL_RULES = (
    "REP004",
    "REP005",
    "REP007",
    "REP101",
    "REP102",
    "REP104",
)


def expected_findings(source: str) -> set[tuple[int, str]]:
    """Parse ``(line, rule)`` expectations from fixture markers."""
    expected: set[tuple[int, str]] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _EXPECT_RE.search(text)
        if match is None:
            continue
        for rule in match.group("rules").split(","):
            if rule.strip():
                expected.add((lineno, rule.strip()))
    return expected


def fixture_files() -> list[Path]:
    files = sorted(FIXTURES.rglob("*.py"))
    assert files, f"no fixtures found under {FIXTURES}"
    return files


@pytest.mark.parametrize(
    "fixture",
    fixture_files(),
    ids=lambda path: path.relative_to(FIXTURES).as_posix(),
)
def test_fixture_matches_expectations(fixture):
    source = fixture.read_text(encoding="utf-8")
    relative = fixture.relative_to(FIXTURES).as_posix()
    findings = LintEngine().check_source(source, relative)
    actual = {(finding.line, finding.rule) for finding in findings}
    assert actual == expected_findings(source)


def test_every_rule_has_a_positive_fixture():
    covered = set()
    for fixture in fixture_files():
        for _, rule in expected_findings(fixture.read_text(encoding="utf-8")):
            covered.add(rule)
    assert set(ALL_RULES) <= covered


def test_every_rule_has_a_suppressed_negative():
    """Each rule's fixture shows the suppression comment silencing it."""
    suppressed = set()
    for fixture in fixture_files():
        for match in re.finditer(
            r"#\s*repro-lint:\s*off\[(?P<rules>[A-Z0-9_,\s]+)\]",
            fixture.read_text(encoding="utf-8"),
        ):
            for rule in match.group("rules").split(","):
                suppressed.add(rule.strip())
    assert set(ALL_RULES) <= suppressed


class TestScoping:
    SET_LOOP = "items = set()\nfor item in items:\n    print(item)\n"

    def test_scoped_rule_fires_in_scope(self):
        engine = LintEngine(select=["REP004"])
        assert engine.check_source(self.SET_LOOP, "tuners/mod.py")
        assert engine.check_source(self.SET_LOOP, "core/deep/mod.py")

    def test_scoped_rule_silent_out_of_scope(self):
        engine = LintEngine(select=["REP004"])
        assert not engine.check_source(self.SET_LOOP, "report/mod.py")
        assert not engine.check_source(self.SET_LOOP, "mod.py")

    def test_exempt_beats_everything(self):
        source = "def f(m, q, c):\n    return m.true_cost(q, c)\n"
        engine = LintEngine(select=["REP101"])
        assert engine.check_source(source, "tuners/mod.py")
        assert not engine.check_source(source, "optimizer/mod.py")
        assert not engine.check_source(source, "eval/mod.py")


class TestRep004Tracking:
    def test_sorted_set_is_clean(self):
        source = (
            "def f(xs):\n"
            "    s = set(xs)\n"
            "    return [x for x in sorted(s)]\n"
        )
        assert not LintEngine(select=["REP004"]).check_source(source, "tuners/m.py")

    def test_rebinding_clears_the_tag(self):
        source = (
            "def f(xs):\n"
            "    s = set(xs)\n"
            "    s = sorted(s)\n"
            "    return [x for x in s]\n"
        )
        assert not LintEngine(select=["REP004"]).check_source(source, "tuners/m.py")

    def test_function_scopes_are_independent(self):
        source = (
            "def a(xs):\n"
            "    s = set(xs)\n"
            "    return s\n"
            "def b(s):\n"
            "    return [x for x in s]\n"
        )
        assert not LintEngine(select=["REP004"]).check_source(source, "tuners/m.py")
