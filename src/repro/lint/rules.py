"""The per-file rules REP004, REP005 and REP007.

Each rule enforces one invariant the reproduction's correctness argument
leans on (see DESIGN.md "Static analysis & invariants") and needs nothing
beyond the one module it reads:

* REP004 — enumeration code never iterates unordered sets;
* REP005 — cost code never compares floats for equality;
* REP007 — cost engines are resolved via the backend factory, never by
  constructing ``WhatIfOptimizer`` directly; the ``psycopg`` driver is
  imported only inside ``repro/backend/dbms`` (the optional-dependency
  gate).

The invariants that span call chains — budget metering, seeded
randomness, budget-exhaustion handling — are whole-program rules
(:mod:`repro.lint.flow.rules`, REP101–REP106).
"""

from __future__ import annotations

import ast

from repro.lint.engine import Rule, register
from repro.lint.flow.summary import render


@register
class BackendBoundaryRule(Rule):
    """REP007: direct ``WhatIfOptimizer``/``psycopg`` use across the seam.

    The cost engine is a pluggable layer: consumers hold a
    :class:`~repro.backend.base.CostBackend` resolved through
    :func:`~repro.backend.factory.build_backend` (or a picklable
    ``BackendSpec``). Importing or constructing the concrete
    ``WhatIfOptimizer`` elsewhere hard-wires the analytic engine, silently
    ignoring the session's ``--backend`` selection — a record run that
    costs through a direct construction writes an incomplete trace, and a
    noisy-robustness run measures the wrong engine.

    The same seam has a second edge: the optional ``psycopg`` driver may
    be imported only inside ``repro/backend/dbms`` (where
    ``require_psycopg`` turns its absence into an actionable error). A
    top-level ``import psycopg`` anywhere else makes the whole module —
    and everything importing it — fail on machines without the extra,
    breaking the "replay works with psycopg uninstalled" guarantee.

    The rule now runs over ``repro/backend`` itself: the WhatIfOptimizer
    sub-checks stay exempt there (``analytic.py`` legitimately re-exports
    it), and the psycopg sub-checks stay exempt under ``dbms``.

    A third edge guards the concurrent-pricing seam: inside the backend
    layer only ``backend/concurrent.py`` (the speculate-then-commit
    ``PricingExecutor``) may pull in ``concurrent.futures`` or spawn
    ``threading.Thread`` workers. Ad-hoc pools next to pricing code race
    budget charges against their workers, so grant order and the event
    stream become scheduling-dependent. ``threading.Lock`` and friends
    stay legal everywhere (the connection pool serializes on one); the
    whole-program REP106 catches spawns that reach pricing from *other*
    layers, where this per-file rule would be too noisy.
    """

    rule_id = "REP007"
    title = "backend-boundary: direct WhatIfOptimizer construction/import"
    exempt = ("optimizer", "lint")

    def __init__(self, ctx):
        super().__init__(ctx)
        # Names bound via ``psycopg = require_psycopg()`` — the sanctioned
        # gate — are not raw driver imports; calls through them are fine.
        self._gated_names: set[str] = set()

    def _optimizer_in_scope(self) -> bool:
        """WhatIfOptimizer checks: everywhere except the backend layer."""
        return "backend" not in self.ctx.segments

    def _psycopg_in_scope(self) -> bool:
        """psycopg checks: everywhere except ``repro/backend/dbms``."""
        return "dbms" not in self.ctx.segments

    def _threads_in_scope(self) -> bool:
        """Thread-machinery checks: the backend layer minus its executor."""
        return "backend" in self.ctx.segments and not self.ctx.path.endswith(
            "concurrent.py"
        )

    def visit_Import(self, node: ast.Import) -> None:
        if self._psycopg_in_scope():
            for alias in node.names:
                if alias.name.split(".")[0] == "psycopg":
                    self.report(
                        node,
                        "direct `import psycopg` outside repro/backend/dbms; "
                        "go through repro.backend.dbms.require_psycopg so a "
                        "missing driver raises an actionable error",
                    )
        if self._threads_in_scope():
            for alias in node.names:
                if alias.name.split(".")[0] == "concurrent":
                    self.report(
                        node,
                        "raw `import concurrent.futures` in the backend "
                        "layer outside backend/concurrent.py; route pricing "
                        "concurrency through "
                        "repro.backend.concurrent.PricingExecutor",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if (
            self._optimizer_in_scope()
            and node.module is not None
            and node.module.split(".")[:2] == ["repro", "optimizer"]
        ):
            for alias in node.names:
                if alias.name == "WhatIfOptimizer":
                    self.report(
                        node,
                        "import of the concrete WhatIfOptimizer outside "
                        "repro/backend and repro/optimizer; annotate with "
                        "repro.backend.CostBackend and resolve engines via "
                        "build_backend",
                    )
        if (
            self._psycopg_in_scope()
            and node.module is not None
            and node.module.split(".")[0] == "psycopg"
        ):
            self.report(
                node,
                "direct `from psycopg import ...` outside repro/backend/dbms; "
                "go through repro.backend.dbms.require_psycopg so a missing "
                "driver raises an actionable error",
            )
        if self._threads_in_scope() and node.module is not None:
            if node.module.split(".")[0] == "concurrent":
                self.report(
                    node,
                    "raw `from concurrent.futures import ...` in the backend "
                    "layer outside backend/concurrent.py; route pricing "
                    "concurrency through "
                    "repro.backend.concurrent.PricingExecutor",
                )
            elif node.module == "threading" and any(
                alias.name == "Thread" for alias in node.names
            ):
                self.report(
                    node,
                    "raw `from threading import Thread` in the backend layer "
                    "outside backend/concurrent.py; route pricing "
                    "concurrency through "
                    "repro.backend.concurrent.PricingExecutor",
                )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            terminal = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if terminal == "require_psycopg":
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._gated_names.add(target.id)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            name = None
        if name == "WhatIfOptimizer" and self._optimizer_in_scope():
            self.report(
                node,
                "direct WhatIfOptimizer construction bypasses the backend "
                "factory; use repro.backend.build_backend (honours "
                "--backend/REPRO_BACKEND)",
            )
        elif (
            self._psycopg_in_scope()
            and isinstance(func, ast.Attribute)
            and func.attr == "connect"
            and isinstance(func.value, ast.Name)
            and func.value.id == "psycopg"
            and func.value.id not in self._gated_names
        ):
            self.report(
                node,
                "direct `psycopg.connect(...)` outside repro/backend/dbms; "
                "use repro.backend.dbms.ConnectionPool (pooling, retry, "
                "session setup)",
            )
        elif (
            self._threads_in_scope()
            and isinstance(func, ast.Attribute)
            and func.attr == "Thread"
            and isinstance(func.value, ast.Name)
            and func.value.id == "threading"
        ):
            self.report(
                node,
                "raw `threading.Thread(...)` in the backend layer outside "
                "backend/concurrent.py; route pricing concurrency through "
                "repro.backend.concurrent.PricingExecutor",
            )
        self.generic_visit(node)


@register
class NondeterministicIterationRule(Rule):
    """REP004: iterating an unordered set in enumeration code.

    ``Index`` hashes on strings, so set/frozenset iteration order varies
    with ``PYTHONHASHSEED`` across processes. Inside ``tuners/``, ``core/``
    and ``budget/`` such an iteration feeds candidate order, float
    accumulation order, or the call-log layout — all pinned by the golden
    FCFS oracle — so every loop must run over a sorted or list-ordered
    source. Dicts keep insertion order and are flagged only when built from
    a set (``dict.fromkeys(a_set)``).
    """

    rule_id = "REP004"
    title = "nondeterministic-iteration: loop over an unordered set"
    scope = ("tuners", "core", "budget")

    _SET_METHODS = frozenset(
        {"union", "intersection", "difference", "symmetric_difference", "copy"}
    )

    def __init__(self, ctx):
        super().__init__(ctx)
        self._scopes: list[dict[str, str]] = [{}]

    # -------------------------------------------------------------- #
    # local type tracking
    # -------------------------------------------------------------- #

    def _lookup(self, name: str) -> str | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def _tag(self, expr: ast.expr) -> str | None:
        """Classify ``expr``: ``"set"``, ``"setdict"``, or ``None``."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(expr, ast.Name):
            return self._lookup(expr.id)
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            if self._tag(expr.left) == "set" or self._tag(expr.right) == "set":
                return "set"
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return "set"
            if isinstance(func, ast.Attribute):
                if (
                    func.attr == "fromkeys"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "dict"
                    and expr.args
                    and self._tag(expr.args[0]) == "set"
                ):
                    return "setdict"
                if (
                    func.attr in self._SET_METHODS
                    and self._tag(func.value) == "set"
                ):
                    return "set"
        return None

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        tag = self._tag(value)
        if tag is not None:
            self._scopes[-1][target.id] = tag
        else:
            # Rebinding to a non-set value clears any stale tag.
            self._scopes[-1].pop(target.id, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._bind(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._bind(node.target, node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)
        # ``s |= other`` keeps a set a set; anything else is left alone.

    def _visit_scope(self, node) -> None:
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_Lambda = _visit_scope

    # -------------------------------------------------------------- #
    # iteration contexts
    # -------------------------------------------------------------- #

    def _check_iter(self, expr: ast.expr) -> None:
        tag = self._tag(expr)
        if tag == "set":
            self.report(
                expr,
                f"iteration over unordered set `{render(expr)}`; iterate "
                "`sorted(...)` with an explicit key",
            )
        elif tag == "setdict":
            self.report(
                expr,
                f"iteration over dict `{render(expr)}` whose keys come "
                "from an unordered set; sort the keys first",
            )
        elif isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if (
                expr.func.attr in ("keys", "items", "values")
                and self._tag(expr.func.value) == "setdict"
            ):
                self.report(
                    expr,
                    f"iteration over `{render(expr)}` of a dict keyed by "
                    "an unordered set; sort the keys first",
                )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


@register
class FloatEqualityRule(Rule):
    """REP005: ``==``/``!=`` against a float in cost/derivation code.

    Costs are sums and minima of floats; exact equality on them encodes an
    accidental bit-pattern assumption that breaks the moment an operand
    order changes. Ordering comparisons (``<=``, ``<``) or explicit
    tolerances express the actual intent.
    """

    rule_id = "REP005"
    title = "float-equality: ==/!= float comparison in cost code"
    scope = ("optimizer", "core", "budget", "eval", "tuners")

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for comparator in (node.left, *node.comparators):
                if isinstance(comparator, ast.Constant) and isinstance(
                    comparator.value, float
                ):
                    self.report(
                        node,
                        f"float equality `{render(node)}`; use an ordering "
                        "comparison or an explicit tolerance",
                    )
                    break
        self.generic_visit(node)
