"""Backend conformance: every registered backend honors the CostBackend contract.

Parametrized over the full :data:`repro.backend.BACKEND_NAMES` registry,
plus a recording analytic session, via the ``make_backend`` fixture. The
contract under test: counted-call accounting, budget denial,
cost-observer ordering against the call log, instance-independent
determinism, and (where the backend declares it) cost monotonicity.
"""

from __future__ import annotations

import pytest

from repro.backend import BACKEND_NAMES, BACKENDS, AnalyticBackend, CostBackend
from repro.exceptions import BudgetExhaustedError


def test_registry_is_consistent():
    assert tuple(BACKENDS) == BACKEND_NAMES
    for name, cls in BACKENDS.items():
        # replay is the analytic engine serving a trace instead of pricing.
        assert cls.name == (AnalyticBackend.name if name == "replay" else name)
        assert isinstance(cls.monotonic, bool)
    assert "record" not in BACKEND_NAMES


def test_satisfies_the_protocol(make_backend):
    assert isinstance(make_backend(), CostBackend)


def test_counts_fresh_calls_and_caches_repeats(make_backend, counting_pairs):
    backend = make_backend(budget=10)
    query, config = counting_pairs[0]

    first = backend.whatif_cost(query, config)
    assert backend.calls_used == 1
    assert backend.whatif_cost(query, config) == first
    assert backend.calls_used == 1, "cached pair must not be re-counted"
    assert backend.stats.cache_hits >= 1


def test_empty_configuration_is_free(make_backend, toy_workload):
    backend = make_backend(budget=5)
    cost = backend.empty_cost(toy_workload.queries[0])
    assert cost > 0
    assert backend.calls_used == 0


def test_budget_deny(make_backend, counting_pairs):
    backend = make_backend(budget=1)
    backend.whatif_cost(*counting_pairs[0])
    with pytest.raises(BudgetExhaustedError):
        backend.whatif_cost(*counting_pairs[1])
    assert backend.calls_used == 1


def test_observers_see_counted_calls_in_log_order(make_backend, counting_pairs):
    backend = make_backend()
    seen = []
    backend.add_cost_observer(lambda qid, key, cost: seen.append((qid, key, cost)))
    for query, config in counting_pairs:
        backend.whatif_cost(query, config)
    assert backend.calls_used == len(counting_pairs)
    logged = [(c.qid, c.configuration, c.cost) for c in backend.call_log]
    assert logged, "expected counted calls"
    assert seen == logged


def test_costs_are_deterministic_across_instances(
    make_backend, toy_workload, universe
):
    def script(backend):
        return [
            backend.whatif_cost(query, config)
            for query in toy_workload.queries[:4]
            for config in universe
        ]

    assert script(make_backend()) == script(make_backend())


def test_monotonic_backends_never_price_supersets_higher(
    make_backend, toy_workload, toy_candidates
):
    backend = make_backend()
    if not backend.monotonic:
        pytest.skip(f"{backend.name} declares monotonic=False")
    head = list(toy_candidates[:2])
    single = frozenset(head[:1])
    pair = frozenset(head)
    for query in toy_workload.queries[:4]:
        assert backend.whatif_cost(query, pair) <= backend.whatif_cost(
            query, single
        ) + 1e-9
        assert backend.whatif_cost(query, single) <= backend.empty_cost(query) + 1e-9
