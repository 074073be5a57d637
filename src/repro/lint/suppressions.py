"""Per-line rule suppression for ``repro.lint``.

A finding is suppressed by a trailing comment on the flagged line::

    for index in chosen:  # repro-lint: off[REP004]
        ...

``off[REP004,REP005]`` silences several rules at once; a bare
``# repro-lint: off`` silences every rule on that line. A suppression on
any *continuation line* of a multi-line statement covers the whole
logical line (findings anchor on the statement's first physical line, the
comment often only fits after the closing bracket)::

    cost = optimizer.true_workload_cost(
        configuration,
    )  # repro-lint: off[REP101]

Suppressions are line-scoped on purpose — a file-wide opt-out belongs in
the checked-in baseline, where it carries a justification.
"""

from __future__ import annotations

import io
import re
import tokenize

#: Matches ``# repro-lint: off`` with an optional ``[RULE, RULE]`` list.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*off(?:\[(?P<rules>[A-Z0-9_,\s]+)\])?"
)

#: Sentinel meaning "every rule is suppressed on this line".
ALL_RULES = "*"


def parse_raw_suppressions(source: str) -> dict[int, set[str]]:
    """The unexpanded table: only lines bearing a suppression comment.

    Used for diagnostics that must point at the comment itself (the
    unknown-rule warning); :func:`parse_suppressions` builds on this and
    additionally spreads suppressions over multi-line statements.
    """
    table: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        raw = match.group("rules")
        if raw is None:
            table.setdefault(lineno, set()).add(ALL_RULES)
        else:
            rules = {part.strip() for part in raw.split(",") if part.strip()}
            table.setdefault(lineno, set()).update(rules)
    return table


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map 1-based line numbers to the rule ids suppressed on them.

    A line mapping to ``{ALL_RULES}`` suppresses every rule. A suppression
    written on any physical line of a multi-line statement is spread over
    the statement's whole logical span, so it reaches findings anchored on
    the first line.
    """
    table = parse_raw_suppressions(source)
    if table:
        for start, end in _logical_spans(source):
            span_rules: set[str] = set()
            for line in range(start, end + 1):
                span_rules |= table.get(line, set())
            if not span_rules or end == start:
                continue
            for line in range(start, end + 1):
                table.setdefault(line, set()).update(span_rules)
    return table


def _logical_spans(source: str) -> list[tuple[int, int]]:
    """(first, last) physical line of every multi-line logical line.

    Tokenization failures (the engine reports those as REP000 anyway)
    yield no spans — suppression falls back to exact-line matching.
    """
    spans: list[tuple[int, int]] = []
    start: int | None = None
    skip = (
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    )
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NEWLINE:
                if start is not None and token.end[0] > start:
                    spans.append((start, token.end[0]))
                start = None
            elif token.type not in skip and start is None:
                start = token.start[0]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    return spans


def is_suppressed(table: dict[int, set[str]], line: int, rule: str) -> bool:
    """Whether ``rule`` is suppressed on ``line`` by ``table``."""
    rules = table.get(line)
    if not rules:
        return False
    return ALL_RULES in rules or rule in rules
