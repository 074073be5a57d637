"""Batched what-if costing: determinism, budget accounting, edge cases.

The batch API must be a pure wall-clock optimization: for any number of
pricing jobs it commits the same counted calls, in the same order, with the
same ordinals and costs as the sequential path.
"""

import pytest

from repro.budget.events import EventLog
from repro.budget.wii import WiiReallocationPolicy
from repro.config import ReproConfig
from repro.exceptions import BudgetExhaustedError, ConstraintError, TuningError
from repro.optimizer.cost_model import CostModel
from repro.optimizer.whatif import BudgetMeter, WhatIfOptimizer
from repro.tuners.greedy import VanillaGreedyTuner
from repro.workload.candidates import CandidateGenerator


def _layout(optimizer):
    return [
        (entry.ordinal, entry.qid, entry.configuration, entry.cost)
        for entry in optimizer.call_log
    ]


class TestPrefetch:
    def test_matches_sequential_calls(self, toy_workload, toy_candidates):
        pairs = [
            (query, frozenset(toy_candidates[: 1 + i % 3]))
            for i, query in enumerate(toy_workload)
        ]
        batched = WhatIfOptimizer(toy_workload)
        batched.whatif_prefetch(pairs)
        sequential = WhatIfOptimizer(toy_workload)
        for query, config in pairs:
            sequential.whatif_cost(query, config)
        assert _layout(batched) == _layout(sequential)
        assert batched.calls_used == sequential.calls_used

    def test_dedupes_in_issue_order(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload)
        config = frozenset(toy_candidates[:2])
        query = toy_workload[0]
        issued = optimizer.whatif_prefetch([(query, config)] * 5)
        assert issued <= 1
        assert optimizer.calls_used == issued

    def test_truncates_to_budget(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload, budget=3, normalize_cache=False)
        config = frozenset(toy_candidates[:1])
        issued = optimizer.whatif_prefetch((q, config) for q in toy_workload)
        assert issued == 3
        assert optimizer.meter.exhausted
        # The first three workload queries got the calls — FCFS.
        assert [c.qid for c in optimizer.call_log] == [
            q.qid for q in list(toy_workload)[:3]
        ]

    def test_limit_caps_below_budget(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload, budget=10, normalize_cache=False)
        config = frozenset(toy_candidates[:1])
        issued = optimizer.whatif_prefetch(
            ((q, config) for q in toy_workload), limit=2
        )
        assert issued == 2
        assert optimizer.meter.remaining == 8

    def test_ordinals_contiguous_across_batches(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload, normalize_cache=False)
        a = frozenset(toy_candidates[:1])
        b = frozenset(toy_candidates[:2])
        optimizer.whatif_cost(toy_workload[0], a)
        optimizer.whatif_prefetch((q, b) for q in toy_workload)
        optimizer.whatif_cost(toy_workload[1], a)
        ordinals = [entry.ordinal for entry in optimizer.call_log]
        assert ordinals == list(range(1, len(ordinals) + 1))


class TestPoolDeterminism:
    @pytest.fixture
    def tpch_slice(self, tpch):
        candidates = CandidateGenerator(tpch.schema).for_workload(tpch)[:40]
        return tpch, candidates

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_workload_costs_jobs_invariant(self, tpch_slice, jobs):
        tpch, candidates = tpch_slice
        configs = [
            frozenset(candidates[i : i + 3]) for i in range(0, 30, 3)
        ]
        serial = WhatIfOptimizer(tpch, pricing_jobs=1)
        pooled = WhatIfOptimizer(tpch, pricing_jobs=jobs)
        try:
            assert serial.whatif_workload_costs(configs) == pooled.whatif_workload_costs(
                configs
            )
            assert _layout(serial) == _layout(pooled)
        finally:
            pooled.close()

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_greedy_jobs_invariant(self, tpch_slice, jobs):
        tpch, candidates = tpch_slice
        results = {}
        for run_jobs in (1, jobs):
            result = VanillaGreedyTuner().tune(
                tpch,
                budget=120,
                candidates=candidates,
                optimizer_config=ReproConfig(pricing_jobs=run_jobs),
            )
            results[run_jobs] = (result.configuration, _layout(result.optimizer))
            result.optimizer.close()
        assert results[jobs] == results[1]

    def test_workload_costs_match_sequential_loop(self, toy_workload, toy_candidates):
        configs = [frozenset(toy_candidates[: 1 + i]) for i in range(4)]
        batched = WhatIfOptimizer(toy_workload)
        totals = batched.whatif_workload_costs(configs)
        sequential = WhatIfOptimizer(toy_workload)
        expected = [
            sum(q.weight * sequential.whatif_cost(q, c) for q in toy_workload)
            for c in configs
        ]
        assert totals == pytest.approx(expected)
        assert _layout(batched) == _layout(sequential)


class TestWorkloadCostsExhaustion:
    def test_raise_mode_matches_sequential(self, toy_workload, toy_candidates):
        config = frozenset(toy_candidates[:1])
        batched = WhatIfOptimizer(toy_workload, budget=3, normalize_cache=False)
        with pytest.raises(BudgetExhaustedError):
            batched.whatif_workload_costs([config])
        sequential = WhatIfOptimizer(toy_workload, budget=3, normalize_cache=False)
        with pytest.raises(BudgetExhaustedError):
            for q in toy_workload:
                sequential.whatif_cost(q, config)
        # Both charged exactly the budget before raising, same layout.
        assert batched.calls_used == sequential.calls_used == 3
        assert _layout(batched) == _layout(sequential)

    def test_derived_mode_returns_fcfs_totals(self, toy_workload, toy_candidates):
        config = frozenset(toy_candidates[:1])
        optimizer = WhatIfOptimizer(toy_workload, budget=3, normalize_cache=False)
        (total,) = optimizer.whatif_workload_costs([config], on_exhausted="derived")
        assert total > 0
        assert optimizer.calls_used == 3

    def test_unknown_mode_rejected(self, toy_workload):
        optimizer = WhatIfOptimizer(toy_workload)
        with pytest.raises(TuningError):
            optimizer.whatif_workload_costs([frozenset()], on_exhausted="bogus")


class TestBudgetMeterEdgeCases:
    def test_zero_budget_check_raises_without_spending(self):
        meter = BudgetMeter(0)
        assert meter.exhausted
        assert meter.remaining == 0
        with pytest.raises(BudgetExhaustedError):
            meter.check()
        assert meter.spent == 0

    def test_remaining_clamped_after_exhaustion(self):
        meter = BudgetMeter(2)
        meter.charge()
        meter.charge()
        assert meter.remaining == 0
        with pytest.raises(BudgetExhaustedError):
            meter.charge()
        assert meter.spent == 2
        assert meter.remaining == 0

    def test_unlimited_meter_never_exhausts(self):
        meter = BudgetMeter(None)
        for _ in range(10):
            meter.check()
            meter.charge()
        assert meter.remaining is None
        assert not meter.exhausted

    def test_zero_budget_optimizer_prices_nothing(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload, budget=0, normalize_cache=False)
        issued = optimizer.whatif_prefetch(
            (q, frozenset(toy_candidates[:1])) for q in toy_workload
        )
        assert issued == 0
        with pytest.raises(BudgetExhaustedError):
            optimizer.whatif_cost(toy_workload[0], frozenset(toy_candidates[:1]))


class TestChargeRollback:
    def test_failed_costing_does_not_leak_budget(
        self, toy_workload, toy_candidates, monkeypatch
    ):
        """Regression: the seed charged the meter before pricing, so a
        cost-model exception consumed a budget unit without producing a
        cached observation."""
        optimizer = WhatIfOptimizer(toy_workload, budget=5, normalize_cache=False)
        config = frozenset(toy_candidates[:2])
        query = toy_workload[0]
        optimizer.empty_cost(query)  # warm, so only the counted path raises

        def boom(prepared, configuration):
            raise RuntimeError("simulated optimizer failure")

        monkeypatch.setattr(optimizer._model, "cost", boom)
        with pytest.raises(RuntimeError):
            optimizer.whatif_cost(query, config)
        monkeypatch.undo()

        assert optimizer.meter.spent == 0
        assert not optimizer.is_cached(query, config)
        assert optimizer.call_log == []
        # The retry succeeds and is charged exactly once.
        optimizer.whatif_cost(query, config)
        assert optimizer.meter.spent == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("route", ["prefetch", "workload_costs"])
    def test_failed_batch_pricing_commits_every_charged_unit(
        self, toy_workload, toy_candidates, monkeypatch, route, jobs
    ):
        """Regression: a pricing failure inside a batch must neither leak a
        budget unit nor drop a granted pair — every unit charged before the
        failure is committed, and the failing pair stays uncharged."""
        optimizer = WhatIfOptimizer(
            toy_workload, budget=5, normalize_cache=False, pricing_jobs=jobs
        )
        config = frozenset(toy_candidates[:2])
        queries = list(toy_workload)
        failing = queries[1]  # the second uncached pair of the batch
        real_cost = optimizer._model.cost

        def flaky(prepared, configuration):
            if prepared.qid == failing.qid:
                raise RuntimeError("simulated optimizer failure")
            return real_cost(prepared, configuration)

        monkeypatch.setattr(optimizer._model, "cost", flaky)
        with pytest.raises(RuntimeError):
            if route == "prefetch":
                optimizer.whatif_prefetch((q, config) for q in queries[:3])
            else:
                optimizer.whatif_workload_costs([config])
        monkeypatch.undo()
        optimizer.close()

        assert optimizer.meter.spent == len(optimizer.call_log)
        assert optimizer.stats.cache_misses == len(optimizer.call_log)
        assert not optimizer.is_cached(failing, config)
        assert all(call.qid != failing.qid for call in optimizer.call_log)
        # The retry charges the failed pair exactly once more.
        spent = optimizer.meter.spent
        optimizer.whatif_cost(failing, config)
        assert optimizer.meter.spent == spent + 1

    def test_pool_size_validation(self, toy_workload):
        with pytest.raises(TuningError, match="at least 1"):
            WhatIfOptimizer(toy_workload, pricing_jobs=0)
        with pytest.raises(ConstraintError, match="at least 1"):
            ReproConfig(pricing_jobs=0)


class TestNoSpeculationAtOneJob:
    """At one pricing job a pair is priced only after the policy admits it."""

    @staticmethod
    def _pairs(workload, candidates):
        configs = [frozenset(candidates[i : i + 2]) for i in range(3)]
        # Query-major order, so a query's slice runs out while the global
        # budget still has room.
        return [(query, config) for query in workload for config in configs]

    @staticmethod
    def _assert_nothing_priced_ahead(optimizer, granted):
        stats = optimizer.stats
        assert stats.speculative_priced == stats.speculation_wasted == 0
        assert stats.cost_evaluations == stats.cache_misses == granted

    def test_wii_slice_denials_before_exhaustion(self, toy_workload, toy_candidates):
        events = EventLog()
        policy = WiiReallocationPolicy(BudgetMeter(24))
        policy.bind(toy_workload)
        policy.attach(events)
        optimizer = WhatIfOptimizer(
            toy_workload,
            normalize_cache=False,
            pricing_jobs=1,
            policy=policy,
            events=events,
        )
        granted = optimizer.whatif_prefetch(self._pairs(toy_workload, toy_candidates))
        denials = [e for e in events.events if e.kind == "budget_deny"]
        assert denials and denials[0].calls_used < 24
        assert granted == optimizer.calls_used
        self._assert_nothing_priced_ahead(optimizer, granted)

    def test_limit(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(
            toy_workload, budget=20, normalize_cache=False, pricing_jobs=1
        )
        granted = optimizer.whatif_prefetch(
            self._pairs(toy_workload, toy_candidates), limit=5
        )
        assert granted == 5
        self._assert_nothing_priced_ahead(optimizer, granted)

    def test_warm_cache_recalls_only_granted_pairs(
        self, toy_workload, toy_candidates, tmp_path, monkeypatch
    ):
        cache = str(tmp_path / "pcache")
        pairs = self._pairs(toy_workload, toy_candidates)
        cold = WhatIfOptimizer(toy_workload, pricing_jobs=1, whatif_cache=cache)
        cold.whatif_prefetch(pairs)
        cold.close()

        def boom(self, prepared, key):
            raise AssertionError("warm run must not touch the cost model")

        monkeypatch.setattr(CostModel, "cost", boom)
        warm = WhatIfOptimizer(
            toy_workload, budget=9, pricing_jobs=1, whatif_cache=cache
        )
        granted = warm.whatif_prefetch(pairs, limit=7)
        warm.close()
        assert granted == 7
        assert warm.stats.persistent_hits == warm.stats.cost_evaluations == granted
        self._assert_nothing_priced_ahead(warm, granted)
