"""Whole-program analysis for ``repro.lint`` (rules REP101–REP106).

A per-file rule sees one module at a time, so an invariant violation that
spans a call chain — a helper two hops from a tuner that forwards to
``CostModel.cost``, an unseeded RNG laundered through a factory, an
unpicklable payload smuggled into a ``CellSpec`` — escapes it. This
package closes that gap in three layers:

* :mod:`repro.lint.flow.summary` — per-file extraction from the syntax
  tree the engine already parsed: imports, symbols, raw call references,
  cost-path sinks, RNG sources, exception handlers, spec construction
  sites.
* :mod:`repro.lint.flow.index` — the link step: module map, import
  resolution, symbol table and call graph over the summaries.
* :mod:`repro.lint.flow.rules` — the interprocedural rules REP101–REP106
  run over the :class:`~repro.lint.flow.index.ProjectIndex`.

:class:`~repro.lint.engine.LintEngine` drives all three in the same pass
as the per-file rules.
"""

from repro.lint.flow.index import ProjectIndex
from repro.lint.flow.rules import FLOW_REGISTRY, run_flow_rules

__all__ = [
    "FLOW_REGISTRY",
    "ProjectIndex",
    "run_flow_rules",
]
