"""Pluggable cost backends: the engine layer behind every what-if call.

The :class:`CostBackend` protocol defines the contract; the registry in
:mod:`repro.backend.factory` maps names to engines:

========== ==================================================================
name       engine
========== ==================================================================
analytic   the simulated what-if optimizer (default, bit-identical baseline)
noisy      analytic × seeded multiplicative noise (robustness studies)
replay     costs served from a recorded trace — zero cost-model invocations
postgres   live Postgres planner over HypoPG hypothetical indexes
========== ==================================================================

Giving any pricing backend a ``trace_path`` records every cost its
session resolves to that trace; ``replay`` serves a trace back. Traces
and the persistent what-if cache share one file format, the cost journal
of :mod:`repro.backend.cache`.

Resolve backends through :func:`build_backend` (or carry a picklable
:class:`BackendSpec` across process boundaries); constructing
:class:`~repro.optimizer.whatif.WhatIfOptimizer` directly outside this
package and :mod:`repro.optimizer` is flagged by lint rule REP007.
"""

from repro.backend.analytic import AnalyticBackend
from repro.backend.base import CostBackend
from repro.backend.cache import PersistentWhatIfCache, canonical_key
from repro.backend.factory import (
    BACKEND_NAMES,
    BACKENDS,
    BackendSpec,
    build_backend,
    resolve_spec,
)
from repro.backend.noisy import NoisyBackend
from repro.backend.postgres import PostgresBackend

__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "AnalyticBackend",
    "BackendSpec",
    "CostBackend",
    "NoisyBackend",
    "PersistentWhatIfCache",
    "PostgresBackend",
    "build_backend",
    "canonical_key",
    "resolve_spec",
]
