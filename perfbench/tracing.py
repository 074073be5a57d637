"""In-memory span tracing wrapped around repro's public entry points.

Nothing under ``src/`` knows about this module: :func:`install` replaces
public functions and methods of the ``repro`` package with thin wrappers
that record one span per call (name, start, end, parent span) while the
tracer is active. Spans live in flat arrays so millions of them stay
cheap; :meth:`Tracer.summary` turns them into per-layer self times
(span duration minus the time covered by its child spans).

The benchmark's round process wraps its set-up and each session the same
way, as root spans. Per-action hot calls such as ``TreeNode.q_value`` are
deliberately not wrapped; selection is spanned at ``select`` instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: Span name -> the (module, owner, attribute) entry points it wraps. An
#: owner of ``None`` wraps a module-level function wherever it is bound.
ENTRY_POINTS: dict[str, list[tuple[str, str | None, str]]] = {
    "core.select": [
        ("repro.core.selection", "EpsilonGreedyPriorPolicy", "select"),
        ("repro.core.selection", "UCTPolicy", "select"),
        ("repro.core.selection", "BoltzmannPolicy", "select"),
    ],
    "core.expand": [
        ("repro.core.node", "TreeNode", "create"),
        ("repro.core.mdp", "IndexTuningMDP", "actions"),
    ],
    "core.rollout": [("repro.core.rollout", "RolloutPolicy", "rollout")],
    "core.priors": [
        ("repro.core.priors", None, "compute_singleton_priors"),
        ("repro.core.priors", None, "prior_pair_count"),
    ],
    "core.extract": [("repro.core.extraction", None, "extract_best")],
    "optimizer.derive": [
        ("repro.optimizer.whatif", "WhatIfOptimizer", "derived_cost"),
        ("repro.optimizer.whatif", "WhatIfOptimizer", "derived_query_costs"),
        ("repro.optimizer.whatif", "WhatIfOptimizer", "derived_workload_cost"),
    ],
    "optimizer.prepare": [("repro.optimizer.cost_model", "CostModel", "prepare")],
    "optimizer.whatif": [
        ("repro.optimizer.whatif", "WhatIfOptimizer", "whatif_cost"),
        ("repro.optimizer.whatif", "WhatIfOptimizer", "whatif_prefetch"),
        ("repro.optimizer.whatif", "WhatIfOptimizer", "whatif_workload_costs"),
        ("repro.optimizer.whatif", "WhatIfOptimizer", "trial_cost"),
    ],
    "optimizer.price": [("repro.optimizer.cost_model", "CostModel", "cost")],
    "backend.cache_load": [
        ("repro.backend.cache", "PersistentWhatIfCache", "get"),
        ("repro.backend.cache", "PersistentWhatIfCache", "put"),
    ],
    "backend.cache_flush": [("repro.backend.cache", "PersistentWhatIfCache", "flush")],
    "budget": [
        ("repro.budget.policy", "BudgetPolicy", "check"),
        ("repro.budget.policy", "BudgetPolicy", "charge"),
        ("repro.budget.policy", "BudgetPolicy", "try_charge"),
        ("repro.budget.policy", "FCFSPolicy", "admits"),
        ("repro.budget.policy", "DelegatingPolicy", "admits"),
        ("repro.budget.policy", "SliceAllowance", "admits"),
    ],
    "workload.build": [("repro.workload.suites.registry", None, "get_workload")],
    "workload.candidates": [
        ("repro.workload.candidates", "CandidateGenerator", "for_workload")
    ],
}

#: Root span of one tuning session; its self time is ``tuners.self_s``.
SESSION = "tuners.session"


class Tracer:
    """Records spans in flat arrays while :attr:`active` is set."""

    def __init__(self) -> None:
        #: Whether :func:`install` wrapped the entry points with this tracer.
        self.installed = False
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """``fn`` recording one ``name`` span per call while active."""
        name_id = self._id(name)
        clock = time.perf_counter
        open_spans = self._open
        ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(starts)
            ids.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                open_spans.pop()

        return traced

    def summary(self, root: str) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and outermost span counts per name, under ``root``.

        A span's self time is its duration minus the durations of its
        direct children, so the self times of a root span's subtree sum to
        the root's duration. A span counts as outermost unless its parent
        has the same name (``derived_workload_cost`` calling
        ``derived_query_costs`` is one derivation, not two).
        """
        # Copies, not views: a view would pin the arrays against growth.
        names = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        self_time = duration - np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        # Pointer jumping: top[i] converges to the root span above i.
        top = np.where(nested, parent, np.arange(len(parent)))
        while True:
            jumped = top[top]
            if np.array_equal(jumped, top):
                break
            top = jumped
        under = names[top] == self._ids.get(root, -1)
        outermost = under & ~(nested & (names[np.maximum(parent, 0)] == names))
        seconds: dict[str, float] = {}
        counts: dict[str, int] = {}
        for name_id, name in enumerate(self.names):
            mine = names == name_id
            seconds[name] = float(self_time[mine & under].sum())
            counts[name] = int(np.count_nonzero(mine & outermost))
        return seconds, counts

    def write(self, path: Path) -> None:
        """Write the spans to an ``.npz`` file.

        Arrays: ``names`` (span names), and per span ``name`` (index into
        ``names``), ``start`` and ``end`` (``perf_counter`` seconds) and
        ``parent`` (span index, -1 for a root).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32),
        )


def install(tracer: Tracer) -> None:
    """Wrap every :data:`ENTRY_POINTS` target of the imported ``repro``."""
    tracer.installed = True
    for name, targets in ENTRY_POINTS.items():
        for module_name, owner_name, attr in targets:
            module = importlib.import_module(module_name)
            if owner_name is None:
                original = getattr(module, attr)
                traced = tracer.wrap(original, name)
                # Rebind every module that imported the function by name.
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and (
                        getattr(loaded, attr, None) is original
                    ):
                        setattr(loaded, attr, traced)
                continue
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, tracer.wrap(raw, name))
