"""The ``repro.lint`` rule engine: one pass over a program.

The engine parses each file once. Per-file rules — :class:`ast.NodeVisitor`
subclasses registered with :func:`register` — run over the tree when their
path scope matches, and the same tree is summarized for the whole-program
rules of :mod:`repro.lint.flow`, which run once every file is read. Both
kinds of finding are filtered through the per-line suppression table
(:mod:`repro.lint.suppressions`), and ``select``/``ignore`` choose among
every rule id alike.

Path scoping uses directory segments, not package imports, so the same
rules run unchanged over ``src/repro/...`` and over the test fixture tree
(``tests/lint/fixtures/tuners/...`` exercises the ``tuners``-scoped rules).
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import ClassVar, Iterable

from repro.lint.findings import Finding
from repro.lint.flow.index import ProjectIndex, iter_python_files, module_name
from repro.lint.flow.rules import FLOW_REGISTRY, run_flow_rules
from repro.lint.flow.summary import FileSummary, summarize
from repro.lint.suppressions import (
    ALL_RULES,
    is_suppressed,
    parse_raw_suppressions,
    parse_suppressions,
)

#: Rule id reserved for files the engine cannot parse.
SYNTAX_RULE = "REP000"

#: Rule id for suppression comments that name a rule nobody registered —
#: a typo'd rule id in a suppression must warn, not silently pass.
UNKNOWN_SUPPRESSION_RULE = "REP008"


def known_rule_ids() -> frozenset[str]:
    """Every rule id a suppression comment may legitimately name."""
    return frozenset(REGISTRY) | frozenset(FLOW_REGISTRY) | {
        SYNTAX_RULE,
        UNKNOWN_SUPPRESSION_RULE,
    }


class LintContext:
    """Per-file state shared by every rule run over one module."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.suppressions = parse_suppressions(source)
        self.segments = frozenset(PurePosixPath(path).parts[:-1])


class Rule(ast.NodeVisitor):
    """Base class for lint rules.

    Class attributes:
        rule_id: Stable identifier (``"REP004"`` ... ).
        title: One-line summary used by ``--list-rules`` and docs.
        scope: Only run on files under a directory named like one of these
            segments (``None`` = every file).
        exempt: Never run on files under a directory named like one of
            these segments (the rule's allowlist).
    """

    rule_id: ClassVar[str] = "REP???"
    title: ClassVar[str] = ""
    scope: ClassVar[tuple[str, ...] | None] = None
    exempt: ClassVar[tuple[str, ...]] = ()

    def __init__(self, ctx: LintContext):
        self.ctx = ctx
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, ctx: LintContext) -> bool:
        """Whether this rule's path scope matches ``ctx``."""
        if any(segment in ctx.segments for segment in cls.exempt):
            return False
        if cls.scope is None:
            return True
        return any(segment in ctx.segments for segment in cls.scope)

    def report(self, node: ast.AST, message: str) -> None:
        """Record one violation anchored at ``node``."""
        self.findings.append(
            Finding(
                rule=self.rule_id,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def run(self) -> list[Finding]:
        """Execute the rule over the module tree and return its findings."""
        self.visit(self.ctx.tree)
        return self.findings


#: The global rule registry, keyed by rule id.
REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to :data:`REGISTRY`."""
    rule_id = rule_cls.rule_id
    if rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    REGISTRY[rule_id] = rule_cls
    return rule_cls


class LintEngine:
    """Runs a set of per-file and whole-program rules over a program.

    Args:
        select: Rule ids to run (default: every rule).
        ignore: Rule ids to skip — the complement of ``select``; applied
            after it, so ``select={A, B}, ignore={B}`` runs only A.
    """

    def __init__(
        self,
        select: Iterable[str] | None = None,
        ignore: Iterable[str] | None = None,
    ):
        selectable = set(REGISTRY) | set(FLOW_REGISTRY) | {UNKNOWN_SUPPRESSION_RULE}
        chosen = selectable if select is None else _known(select, selectable)
        if ignore is not None:
            chosen = chosen - _known(ignore, selectable)
        self._rules = [REGISTRY[key] for key in sorted(chosen & set(REGISTRY))]
        self._flow_rules = chosen & set(FLOW_REGISTRY)
        self._warn_unknown_suppressions = UNKNOWN_SUPPRESSION_RULE in chosen

    def check_source(self, source: str, path: str) -> list[Finding]:
        """Lint one module given as text, as a program of its own;
        ``path`` drives rule scoping."""
        posix = PurePosixPath(path).as_posix()
        findings, summary = self._check_module(posix, PurePosixPath(posix).stem, source)
        return self._link(findings, [summary] if summary else [])

    def check_paths(self, paths: Iterable) -> list[Finding]:
        """Lint files and directory trees (walked for ``*.py``) as one
        program."""
        findings: list[Finding] = []
        summaries: list[FileSummary] = []
        for path in iter_python_files(paths):
            file_findings, summary = self._check_module(
                path.as_posix(), module_name(path), path.read_text(encoding="utf-8")
            )
            findings.extend(file_findings)
            if summary is not None:
                summaries.append(summary)
        return self._link(findings, summaries)

    def _check_module(
        self, path: str, module: str, source: str
    ) -> tuple[list[Finding], FileSummary | None]:
        """Per-file findings of one module, and its summary for the flow
        rules (``None`` when the module does not parse)."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            syntax = Finding(
                rule=SYNTAX_RULE,
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                message=f"syntax error: {error.msg}",
            )
            return [syntax], None
        ctx = LintContext(path, source, tree)
        findings = [
            finding
            for rule_cls in self._rules
            if rule_cls.applies_to(ctx)
            for finding in rule_cls(ctx).run()
            if not is_suppressed(ctx.suppressions, finding.line, finding.rule)
        ]
        if self._warn_unknown_suppressions:
            findings.extend(self._unknown_suppressions(ctx))
        if not self._flow_rules:
            return findings, None
        return findings, summarize(path, module, tree, ctx.suppressions)

    def _link(
        self, findings: list[Finding], summaries: list[FileSummary]
    ) -> list[Finding]:
        """Add the flow rules' findings over ``summaries``; sort by place."""
        if self._flow_rules:
            findings = findings + run_flow_rules(
                ProjectIndex(summaries), self._flow_rules
            )
        return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))

    @staticmethod
    def _unknown_suppressions(ctx: LintContext) -> list[Finding]:
        """REP008 warnings for suppressions naming unregistered rules."""
        known = known_rule_ids()
        findings: list[Finding] = []
        raw_table = parse_raw_suppressions(ctx.source)
        for line in sorted(raw_table):
            if is_suppressed(
                ctx.suppressions, line, UNKNOWN_SUPPRESSION_RULE
            ):
                continue  # the warning itself is suppressible
            for rule in sorted(raw_table[line] - known - {ALL_RULES}):
                findings.append(
                    Finding(
                        rule=UNKNOWN_SUPPRESSION_RULE,
                        path=ctx.path,
                        line=line,
                        col=0,
                        message=(
                            f"unknown-suppression: `# repro-lint: off[{rule}]` "
                            "names a rule that does not exist; the suppression "
                            "has no effect (typo?)"
                        ),
                    )
                )
        return findings


def _known(rule_ids: Iterable[str], selectable: set[str]) -> set[str]:
    """``rule_ids`` as a set; ``ValueError`` names any unknown id."""
    chosen = set(rule_ids)
    unknown = chosen - selectable
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
    return chosen


# The per-file rules register themselves on import; importing them here
# (after ``register`` exists) fills REGISTRY for every user of the engine.
from repro.lint import rules as _rules  # noqa: E402, F401
