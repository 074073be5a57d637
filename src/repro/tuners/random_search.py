"""Random configuration search — a control baseline (not in the paper).

Samples random configurations of admissible size, spends one counted
what-if call per query per sample (FCFS), and keeps the best. Useful as the
floor every principled algorithm must beat in tests and ablations.
"""

from __future__ import annotations

from repro.catalog import Index
from repro.optimizer.whatif import sequential_sum
from repro.rng import make_rng
from repro.tuners.base import Tuner, TuningSession


class RandomSearchTuner(Tuner):
    """Uniform random sampling over admissible configurations."""

    name = "random_search"

    def __init__(self, seed: int | None = None):
        self._seed = seed

    def _enumerate(self, session: TuningSession) -> frozenset[Index]:
        rng = make_rng(self._seed)
        optimizer = session.optimizer
        candidates = session.candidates
        constraints = session.constraints
        workload = session.workload
        best: frozenset[Index] = frozenset()
        best_cost = optimizer.empty_workload_cost()
        max_size = min(constraints.max_indexes, len(candidates))

        # Bound the loop even when the budget is unlimited or no sample is
        # ever admissible (tiny storage constraints).
        budget = session.budget
        max_samples = 10 * (budget if budget is not None else 100)
        for _ in range(max_samples):
            if session.exhausted:
                break
            size = rng.randint(1, max_size)
            sample = frozenset(rng.sample(candidates, size))
            if not constraints.admits(sample):
                continue
            cost = sequential_sum(
                q.weight * session.evaluated_cost(q, sample) for q in workload
            )
            if cost < best_cost:
                best, best_cost = sample, cost
                session.checkpoint(best)
        return best
