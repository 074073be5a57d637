"""Engine, suppression, baseline, and CLI tests for ``repro.lint``."""

from __future__ import annotations

import json

import pytest

from repro.lint import Baseline, BaselineEntry, LintEngine, REGISTRY
from repro.lint.cli import main as lint_main
from repro.lint.engine import SYNTAX_RULE
from repro.lint.findings import Finding
from repro.lint.suppressions import ALL_RULES, is_suppressed, parse_suppressions


#: A module REP102 flags (a global-state RNG call) and no other rule does.
_DIRTY = "import random\n\n\ndef f(xs):\n    random.shuffle(xs)\n    return xs\n"


class TestSuppressions:
    def test_single_rule(self):
        table = parse_suppressions("x = 1  # repro-lint: off[REP004]\n")
        assert table == {1: {"REP004"}}

    def test_multiple_rules(self):
        table = parse_suppressions("x = 1  # repro-lint: off[REP004, REP005]\n")
        assert table == {1: {"REP004", "REP005"}}

    def test_bare_off_suppresses_everything(self):
        table = parse_suppressions("x = 1  # repro-lint: off\n")
        assert table == {1: {ALL_RULES}}
        assert is_suppressed(table, 1, "REP101")
        assert is_suppressed(table, 1, "REP104")

    def test_unrelated_comment_is_not_a_suppression(self):
        assert parse_suppressions("x = 1  # repro-lint-expect: REP004\n") == {}

    def test_other_lines_unaffected(self):
        table = parse_suppressions("x = 1  # repro-lint: off[REP004]\ny = 2\n")
        assert not is_suppressed(table, 2, "REP004")


class TestEngine:
    def test_syntax_error_becomes_rep000(self):
        findings = LintEngine().check_source("def broken(:\n", "mod.py")
        assert len(findings) == 1
        assert findings[0].rule == SYNTAX_RULE

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="REP999"):
            LintEngine(select=["REP999"])

    def test_registry_has_all_rules(self):
        assert set(REGISTRY) == {"REP004", "REP005", "REP007"}

    def test_findings_sorted_by_position(self):
        source = (
            "def f(m, q, c):\n"
            "    if c == 0.0:\n"
            "        return m.true_cost(q, c)\n"
        )
        findings = LintEngine().check_source(source, "tuners/m.py")
        assert [f.rule for f in findings] == ["REP005", "REP101"]
        assert findings[0].line < findings[1].line


class TestBaseline:
    def _finding(self, message="msg", path="src/m.py", rule="REP101"):
        return Finding(rule=rule, path=path, line=3, col=0, message=message)

    def test_split_partitions(self):
        accepted_f = self._finding("accepted")
        new_f = self._finding("brand new")
        baseline = Baseline(
            [
                BaselineEntry(path="src/m.py", rule="REP101", message="accepted"),
                BaselineEntry(path="src/m.py", rule="REP101", message="gone"),
            ]
        )
        new, accepted, stale = baseline.split([accepted_f, new_f])
        assert new == [new_f]
        assert accepted == [accepted_f]
        assert [entry.message for entry in stale] == ["gone"]

    def test_line_drift_does_not_stale(self):
        baseline = Baseline(
            [BaselineEntry(path="src/m.py", rule="REP101", message="msg", line=99)]
        )
        new, accepted, stale = baseline.split([self._finding()])
        assert not new and not stale and len(accepted) == 1

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([self._finding()]).save(path)
        loaded = Baseline.load(path)
        assert [entry.key for entry in loaded.entries] == [
            ("src/m.py", "REP101", "msg")
        ]


class TestCli:
    def _write_dirty(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(_DIRTY, encoding="utf-8")
        return target

    def test_findings_exit_1(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        assert lint_main([str(target), "--no-baseline"]) == 1
        assert "REP102" in capsys.readouterr().out

    def test_clean_exit_0(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def f(xs=None):\n    return xs\n", encoding="utf-8")
        assert lint_main([str(target), "--no-baseline"]) == 0

    def test_baseline_silences_and_exits_0(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(target), "--write-baseline", str(baseline)]) == 0
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_stale_baseline_reported_but_exit_0(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "path": "gone.py",
                            "rule": "REP101",
                            "message": "old",
                            "justification": "was fixed",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        assert "stale" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        assert lint_main([str(target), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "REP102"
        assert payload["baselined"] == []
        assert payload["stale_baseline"] == []

    def test_select_unknown_rule_exit_2(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        assert lint_main([str(target), "--select", "REP999"]) == 2

    def test_missing_path_exit_2(self, tmp_path):
        assert lint_main([str(tmp_path / "nope.py")]) == 2

    def test_no_paths_exit_2(self):
        assert lint_main([]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP004", "REP101"):
            assert rule_id in out
        for retired in ("REP001", "REP002", "REP003", "REP006"):
            assert retired not in out


class TestBaselineJustification:
    """The --justification flag and the placeholder-sentinel warning."""

    def _write_dirty(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(_DIRTY, encoding="utf-8")
        return target

    def test_written_baseline_carries_the_justification(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main(
                [
                    str(target),
                    "--write-baseline",
                    str(baseline),
                    "--justification",
                    "global reseed is load-bearing here",
                ]
            )
            == 0
        )
        assert "global reseed is load-bearing here" in capsys.readouterr().out
        entries = json.loads(baseline.read_text(encoding="utf-8"))["entries"]
        assert all(
            e["justification"] == "global reseed is load-bearing here"
            for e in entries
        )
        # A justified baseline stays warning-free on the next run.
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        assert "placeholder" not in capsys.readouterr().err

    def test_placeholder_entries_warn_until_replaced(self, tmp_path, capsys):
        from repro.lint.baseline import PLACEHOLDER_JUSTIFICATION

        target = self._write_dirty(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(target), "--write-baseline", str(baseline)]) == 0
        entries = json.loads(baseline.read_text(encoding="utf-8"))["entries"]
        assert all(
            e["justification"] == PLACEHOLDER_JUSTIFICATION for e in entries
        )
        capsys.readouterr()
        # The findings stay silenced (exit 0) but the run nags on stderr.
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        assert "placeholder" in capsys.readouterr().err

    def test_justification_without_write_baseline_is_an_error(
        self, tmp_path, capsys
    ):
        target = self._write_dirty(tmp_path)
        assert lint_main([str(target), "--justification", "why"]) == 2
        assert "--write-baseline" in capsys.readouterr().err


class TestSuppressionEdgeCases:
    """Multi-rule comments, continuation lines, unknown-rule warnings."""

    def test_multiple_rules_one_comment_suppresses_both(self):
        source = (
            "def f(m, q, c):\n"
            "    return m.true_cost(q, c) == 0.0  # repro-lint: off[REP005, REP101]\n"
        )
        assert LintEngine().check_source(source, "tuners/m.py") == []

    def test_continuation_line_suppression_covers_the_statement(self):
        source = (
            "def f(m, q, c):\n"
            "    return m.true_cost(\n"
            "        q, c,\n"
            "    )  # repro-lint: off[REP101]\n"
        )
        assert LintEngine().check_source(source, "tuners/m.py") == []

    def test_continuation_suppression_does_not_leak_past_statement(self):
        source = (
            "def f(m, q, c):\n"
            "    first = m.true_cost(\n"
            "        q, c,\n"
            "    )  # repro-lint: off[REP101]\n"
            "    return m.true_cost(q, c)\n"
        )
        findings = LintEngine().check_source(source, "tuners/m.py")
        assert [f.rule for f in findings] == ["REP101"]
        assert findings[0].line == 5

    def test_unknown_rule_suppression_warns(self):
        source = "x = 1  # repro-lint: off[REP04]\n"
        findings = LintEngine().check_source(source, "mod.py")
        assert [f.rule for f in findings] == ["REP008"]
        assert "REP04" in findings[0].message
        assert findings[0].line == 1

    def test_retired_rule_suppression_warns(self):
        source = "x = 1  # repro-lint: off[REP001]\n"
        findings = LintEngine().check_source(source, "mod.py")
        assert [f.rule for f in findings] == ["REP008"]
        assert "REP001" in findings[0].message

    def test_known_flow_rule_suppression_does_not_warn(self):
        source = "x = 1  # repro-lint: off[REP102]\n"
        assert LintEngine().check_source(source, "mod.py") == []

    def test_bare_off_does_not_warn(self):
        source = "x = 1  # repro-lint: off\n"
        assert LintEngine().check_source(source, "mod.py") == []

    def test_rep008_can_be_ignored(self):
        source = "x = 1  # repro-lint: off[REP04]\n"
        engine = LintEngine(ignore=["REP008"])
        assert engine.check_source(source, "mod.py") == []

    def test_rep008_is_itself_suppressible(self):
        source = "x = 1  # repro-lint: off[REP04, REP008]\n"
        assert LintEngine().check_source(source, "mod.py") == []


class TestIgnore:
    _SOURCE = "def f(m, q, c):\n    return m.true_cost(q, c) == 0.0\n"

    def test_ignore_drops_a_rule(self):
        findings = LintEngine(ignore=["REP005"]).check_source(
            self._SOURCE, "tuners/m.py"
        )
        assert [f.rule for f in findings] == ["REP101"]

    def test_ignore_applies_after_select(self):
        engine = LintEngine(select=["REP101", "REP005"], ignore=["REP005"])
        findings = engine.check_source(self._SOURCE, "tuners/m.py")
        assert [f.rule for f in findings] == ["REP101"]

    def test_unknown_ignore_rejected(self):
        with pytest.raises(ValueError, match="REP999"):
            LintEngine(ignore=["REP999"])


class TestBaselineFormat:
    def test_save_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline(
            [BaselineEntry(path="src/m.py", rule="REP101", message="msg")]
        ).save(path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("}\n")
        entry_keys = list(json.loads(text)["entries"][0])
        assert entry_keys == sorted(entry_keys)


class TestCliFlowSurface:
    def _write_dirty(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(_DIRTY, encoding="utf-8")
        return target

    def _write_flow_project(self, tmp_path):
        project = tmp_path / "proj"
        (project / "tuners").mkdir(parents=True)
        (project / "tuners" / "search.py").write_text(
            "import random\n\n\n"
            "def pick(items):\n"
            "    gen = random.Random()\n"
            "    return gen.random()\n",
            encoding="utf-8",
        )
        return project

    def test_ignore_flag(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        assert lint_main(
            [str(target), "--no-baseline", "--ignore", "REP102"]
        ) == 0

    def test_unknown_ignore_exit_2(self, tmp_path):
        target = self._write_dirty(tmp_path)
        assert lint_main([str(target), "--ignore", "REP999"]) == 2

    def test_invalid_jobs_exit_2(self, tmp_path):
        """``--jobs`` and the other speed options are gone: argparse
        rejects them as unknown arguments."""
        target = self._write_dirty(tmp_path)
        for option in (["--jobs", "2"], ["--flow"], ["--cache", "c.json"],
                       ["--no-cache"], ["--stats"]):
            with pytest.raises(SystemExit) as exit_info:
                lint_main([str(target), *option])
            assert exit_info.value.code == 2

    def test_default_run_reports_flow_findings(self, tmp_path, capsys):
        project = self._write_flow_project(tmp_path)
        assert lint_main([str(project), "--no-baseline"]) == 1
        assert "REP102" in capsys.readouterr().out

    def test_selecting_flow_rule_implies_flow(self, tmp_path, capsys):
        project = self._write_flow_project(tmp_path)
        assert lint_main(
            [str(project), "--no-baseline", "--select", "REP102"]
        ) == 1
        assert "REP102" in capsys.readouterr().out

    def test_ignoring_every_flow_rule_skips_flow(self, tmp_path, capsys):
        project = self._write_flow_project(tmp_path)
        ignore = "REP101,REP102,REP103,REP104,REP105,REP106"
        assert lint_main(
            [str(project), "--no-baseline", "--ignore", ignore]
        ) == 0

    def test_sarif_format(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        assert lint_main(
            [str(target), "--no-baseline", "--format", "sarif"]
        ) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "REP102"

    def test_list_rules_includes_flow(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP101" in out and "REP105" in out
        assert "whole-program" in out

    def test_exclude_drops_directory_findings(self, tmp_path, capsys):
        nested = tmp_path / "fixtures"
        nested.mkdir()
        (nested / "mod.py").write_text(_DIRTY, encoding="utf-8")
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1
        capsys.readouterr()
        assert lint_main(
            [str(tmp_path), "--no-baseline", "--exclude", "fixtures"]
        ) == 0
