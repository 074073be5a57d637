"""Smoke test: the shipped tree lints clean against the checked-in baseline."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parents[2]


def _run_lint(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_src_lints_clean_against_baseline():
    result = _run_lint("src", "--baseline", "lint-baseline.json")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 findings, 3 baselined" in result.stdout
    assert "stale" not in result.stdout


def test_baseline_has_justifications():
    import json

    data = json.loads((REPO_ROOT / "lint-baseline.json").read_text(encoding="utf-8"))
    assert data["entries"], "baseline should record the intentional exceptions"
    for entry in data["entries"]:
        assert entry["justification"].strip()
        assert "TODO" not in entry["justification"]


def test_src_flow_lints_clean_against_baseline():
    """The whole-program rules alone carry every baselined finding."""
    result = _run_lint(
        "src", "--baseline", "lint-baseline.json",
        "--select", "REP101,REP102,REP103,REP104,REP105,REP106",
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 findings, 3 baselined" in result.stdout
    assert "stale" not in result.stdout


def test_test_tree_lints_clean_with_scoped_rules():
    result = _run_lint(
        "tests", "benchmarks", "examples",
        "--no-baseline",
        "--select", "REP004,REP102,REP104",
        "--exclude", "fixtures,fixtures_flow",
    )
    assert result.returncode == 0, result.stdout + result.stderr
