"""Static analysis and runtime invariants for the reproduction.

Two layers guard the invariants the budget curves depend on:

* the **static** layer — one rule engine (:mod:`repro.lint.engine`) that
  parses each file once and runs the per-file rules
  (:mod:`repro.lint.rules`, REP004/REP005/REP007) and the whole-program
  rules (:mod:`repro.lint.flow`, REP101–REP106) over a linked project
  index, with a per-line suppression syntax, text/JSON/SARIF reporters,
  and a checked-in baseline of justified exceptions. Run it as
  ``python -m repro.lint src/``.
* the **runtime** layer — opt-in sanitizers (:mod:`repro.lint.sanitizers`)
  activated by ``REPRO_SANITIZE=1`` that assert cost-model monotonicity
  (Assumption 1) and session event-stream discipline on live runs.
"""

from importlib import import_module

from repro.lint.sanitizers import (
    EventStreamValidator,
    MonotonicityChecker,
    SessionSanitizers,
    install_session_sanitizers,
)

#: The static layer's exports, imported on first use: every tuning session
#: imports the sanitizers, and the rule engine would add to its start-up.
_STATIC = {
    "Baseline": "repro.lint.baseline",
    "BaselineEntry": "repro.lint.baseline",
    "Finding": "repro.lint.findings",
    "LintEngine": "repro.lint.engine",
    "REGISTRY": "repro.lint.engine",
    "Rule": "repro.lint.engine",
    "known_rule_ids": "repro.lint.engine",
    "register": "repro.lint.engine",
}


def __getattr__(name: str):
    if name not in _STATIC:
        raise AttributeError(f"module 'repro.lint' has no attribute {name!r}")
    return getattr(import_module(_STATIC[name]), name)


__all__ = [
    "Baseline",
    "BaselineEntry",
    "EventStreamValidator",
    "Finding",
    "LintEngine",
    "MonotonicityChecker",
    "REGISTRY",
    "Rule",
    "SessionSanitizers",
    "install_session_sanitizers",
    "known_rule_ids",
    "register",
]
