"""The cost-ordered bitmask derivation index against brute-force Equation 1.

Random observation streams — ``∅``, singletons, compounds and re-records
at lower and higher costs — go into a live optimizer's derivation store.
Every derived quantity must equal the minimum over recorded subsets
computed by brute force, with cache normalization on and off.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.optimizer.derivation import CostDerivation
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners import DTATuner, MCTSTuner, VanillaGreedyTuner


def _relevant(optimizer, query, pool):
    return sorted(
        optimizer.prepared(query).relevant_subset(frozenset(pool)),
        key=pool.index,
    )


def _brute(recorded, qid, configuration, empty_cost):
    """Equation 1: the minimum recorded cost over subsets of ``C``."""
    best = recorded.get((qid, frozenset()), empty_cost)
    for (owner, key), cost in recorded.items():
        if owner == qid and key <= configuration and cost < best:
            best = cost
    return best


@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "whole"])
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32), records=st.integers(1, 80))
def test_derivation_matches_brute_force(
    toy_workload, toy_candidates, normalize, seed, records
):
    rng = random.Random(seed)
    optimizer = WhatIfOptimizer(toy_workload, budget=0, normalize_cache=normalize)
    store = optimizer.derivation
    pool = list(toy_candidates[:12])
    queries = list(toy_workload)
    recorded: dict = {}

    def record(qid, key, cost):
        store.record(qid, key, cost)
        if cost < recorded.get((qid, key), float("inf")):
            recorded[(qid, key)] = cost

    for query in queries:
        record(query.qid, frozenset(), optimizer.empty_cost(query))
    for _ in range(records):
        query = rng.choice(queries)
        # Under normalization a recorded key is always ⊆ relevant(q).
        members = _relevant(optimizer, query, pool) if normalize else pool
        if rng.random() < 0.2 and recorded:
            qid, key = rng.choice(sorted(recorded, key=repr))
            cost = recorded[(qid, key)] * rng.choice([0.5, 0.9, 1.0, 1.5])
        else:
            qid = query.qid
            size = rng.choice([0, 1, 1, 2, 3, 4])
            key = frozenset(rng.sample(members, min(size, len(members))))
            cost = optimizer.empty_cost(query) * rng.uniform(0.05, 1.2)
        record(qid, key, cost)

    def expected(query, configuration):
        key = configuration
        if normalize:
            key = optimizer.prepared(query).relevant_subset(configuration)
        return _brute(recorded, query.qid, key, optimizer.empty_cost(query))

    for _ in range(15):
        configuration = frozenset(rng.sample(pool, rng.randint(0, 6)))
        assert optimizer.derived_query_costs(configuration) == [
            query.weight * expected(query, configuration) for query in queries
        ]
        for query in queries:
            base = expected(query, configuration)
            assert optimizer.derived_cost(query, configuration) == base
            for extra in pool:
                if extra in configuration:
                    continue
                trial = configuration | {extra}
                assert store.derived_cost_with_extra(
                    query.qid, base, trial, extra
                ) == expected(query, trial)
    for query in queries:
        for index in pool:
            assert store.has_observation(query.qid, index) == any(
                owner == query.qid and index in key for owner, key in recorded
            )


class TestRecordedKeysAreRelevant:
    """With normalization on, every key the store records is ``∅`` or lies
    inside ``relevant(q)`` — what lets derivation skip normalization."""

    @pytest.mark.parametrize(
        "tuner",
        [lambda: MCTSTuner(seed=0), VanillaGreedyTuner, DTATuner],
        ids=["mcts", "vanilla", "dta"],
    )
    def test_sessions_record_only_relevant_keys(
        self, monkeypatch, toy_workload, tuner
    ):
        seen = []
        original = CostDerivation.record

        def spy(self, qid, configuration, cost):
            seen.append((qid, configuration))
            original(self, qid, configuration, cost)

        monkeypatch.setattr(CostDerivation, "record", spy)
        result = tuner().tune(toy_workload, budget=120)
        queries = {query.qid: query for query in toy_workload}
        assert result.optimizer.normalize_cache
        assert seen
        for qid, key in seen:
            prepared = result.optimizer.prepared(queries[qid])
            assert prepared.relevant_subset(key) == key
