"""Record → replay: bit-identical sessions with zero cost-model invocations.

Recording is ``trace_path`` on any pricing backend; ``replay`` serves the
trace back through the analytic engine and never prices.
"""

from __future__ import annotations

import json

import pytest

from repro.backend import BackendSpec, PersistentWhatIfCache, build_backend
from repro.backend.cache import workload_fingerprint
from repro.exceptions import TraceError, TraceMissError, TuningError
from repro.optimizer.cost_model import CostModel
from repro.tuners import MCTSTuner, VanillaGreedyTuner


def _tune(workload, backend_spec, tuner):
    return tuner.tune(workload, budget=60, backend=backend_spec)


def _boom(self, prepared, key):  # pragma: no cover - must never run
    raise AssertionError("replay must not invoke the cost model")


def _layout(result):
    return [
        (c.ordinal, c.qid, c.configuration, c.cost) for c in result.optimizer.call_log
    ]


def _assert_same_session(replayed, recorded):
    assert replayed.configuration == recorded.configuration
    assert replayed.estimated_cost == recorded.estimated_cost
    assert replayed.baseline_cost == recorded.baseline_cost
    assert replayed.calls_used == recorded.calls_used
    assert _layout(replayed) == _layout(recorded)
    assert [e.to_json() for e in replayed.events] == [
        e.to_json() for e in recorded.events
    ]
    assert replayed.optimizer.stats.replayed > 0


@pytest.fixture(
    params=[
        ("greedy", lambda: VanillaGreedyTuner()),
        ("mcts", lambda: MCTSTuner(seed=0)),
    ],
    ids=lambda p: p[0],
)
def tuner_factory(request):
    return request.param[1]


def test_replay_reproduces_the_session_without_the_cost_model(
    tmp_path, toy_workload, tuner_factory, monkeypatch
):
    trace = tmp_path / "trace.jsonl"
    recorded = _tune(
        toy_workload,
        BackendSpec(name="analytic", trace_path=str(trace)),
        tuner_factory(),
    )
    recorded_improvement = recorded.true_improvement()
    # Close only after the ground-truth evaluation so the trace also covers
    # the uncounted pricings a replayed session will need.
    recorded.optimizer.close()

    monkeypatch.setattr(CostModel, "cost", _boom)
    replayed = _tune(
        toy_workload, BackendSpec(name="replay", trace_path=str(trace)), tuner_factory()
    )

    _assert_same_session(replayed, recorded)
    assert replayed.true_improvement() == recorded_improvement
    assert replayed.optimizer.monotonic is True


def test_noisy_mcts_session_replays_bit_for_bit(tmp_path, toy_workload, monkeypatch):
    """Recording is not tied to the analytic engine: a noisy session replays."""
    trace = tmp_path / "noisy.jsonl"
    spec = BackendSpec(name="noisy", noise=0.3, noise_seed=5, trace_path=str(trace))
    recorded = _tune(toy_workload, spec, MCTSTuner(seed=3))
    recorded_improvement = recorded.true_improvement()
    recorded.optimizer.close()
    assert recorded.optimizer.trace.identity["backend"] == "noisy"

    monkeypatch.setattr(CostModel, "cost", _boom)
    replayed = _tune(
        toy_workload, BackendSpec(name="replay", trace_path=str(trace)), MCTSTuner(seed=3)
    )

    _assert_same_session(replayed, recorded)
    assert replayed.true_improvement() == recorded_improvement
    # Noisy costs break Assumption 1, so replay keeps the sanitizer off.
    assert replayed.optimizer.monotonic is False


def test_noisy_replay_scores_on_the_recorded_clean_costs(
    tmp_path, toy_workload, monkeypatch
):
    """Every final pair priced under noise: the replay must still score clean."""
    trace = tmp_path / "noisy.jsonl"
    spec = BackendSpec(name="noisy", noise=0.3, noise_seed=5, trace_path=str(trace))
    recorded = VanillaGreedyTuner().tune(toy_workload, budget=10_000, backend=spec)
    recorded_improvement = recorded.true_improvement()
    recorded.optimizer.close()
    searched = recorded.optimizer.whatif_workload_cost(recorded.configuration)
    assert recorded.calls_used == recorded.optimizer.calls_used  # nothing new priced
    assert searched != recorded.optimizer.true_workload_cost(recorded.configuration)

    monkeypatch.setattr(CostModel, "cost", _boom)
    replayed = VanillaGreedyTuner().tune(
        toy_workload,
        budget=10_000,
        backend=BackendSpec(name="replay", trace_path=str(trace)),
    )
    _assert_same_session(replayed, recorded)
    assert replayed.optimizer.separate_truth is True
    assert replayed.true_improvement() == recorded_improvement
    assert replayed.optimizer.whatif_workload_cost(replayed.configuration) == searched


def test_warm_cache_recording_replays_bit_for_bit(tmp_path, toy_workload, monkeypatch):
    """Costs recalled from the persistent cache are recorded like priced ones."""
    cache = str(tmp_path / "pcache")
    cold = _tune(
        toy_workload, BackendSpec(name="analytic", whatif_cache=cache), VanillaGreedyTuner()
    )
    cold.true_improvement()
    cold.optimizer.close()

    monkeypatch.setattr(CostModel, "cost", _boom)
    trace = tmp_path / "warm.jsonl"
    recorded = _tune(
        toy_workload,
        BackendSpec(name="analytic", whatif_cache=cache, trace_path=str(trace)),
        VanillaGreedyTuner(),
    )
    recorded_improvement = recorded.true_improvement()
    recorded.optimizer.close()
    stats = recorded.optimizer.stats
    assert stats.persistent_hits == stats.cost_evaluations > 0

    replayed = _tune(
        toy_workload, BackendSpec(name="replay", trace_path=str(trace)), VanillaGreedyTuner()
    )
    _assert_same_session(replayed, recorded)
    assert _layout(replayed) == _layout(cold)
    assert replayed.true_improvement() == recorded_improvement


def test_replay_rejects_a_foreign_workload(tmp_path, toy_workload, figure3_workload):
    trace = tmp_path / "trace.jsonl"
    recorder = build_backend(
        BackendSpec(name="analytic", trace_path=str(trace)), toy_workload
    )
    recorder.empty_workload_cost()
    recorder.close()
    with pytest.raises(TraceError, match="workload"):
        build_backend(
            BackendSpec(name="replay", trace_path=str(trace)), figure3_workload
        )


def test_replay_adopts_the_recorded_normalization(tmp_path, toy_workload):
    trace = tmp_path / "trace.jsonl"
    recorder = build_backend(
        BackendSpec(name="analytic", trace_path=str(trace)),
        toy_workload,
        normalize_cache=False,
    )
    recorder.empty_workload_cost()
    recorder.close()
    replayer = build_backend(BackendSpec(name="replay", trace_path=str(trace)), toy_workload)
    assert replayer.normalize_cache is False
    with pytest.raises(TraceError, match="normalize_cache"):
        build_backend(
            BackendSpec(name="replay", trace_path=str(trace)),
            toy_workload,
            normalize_cache=True,
        )


def test_replay_ignores_the_persistent_cache(tmp_path, toy_workload, monkeypatch):
    """The trace already is a replay session's cache, wherever one is set."""
    trace = tmp_path / "trace.jsonl"
    recorder = build_backend(
        BackendSpec(name="analytic", trace_path=str(trace)), toy_workload
    )
    recorder.empty_workload_cost()
    recorder.close()
    cache = tmp_path / "pcache"
    monkeypatch.setenv("REPRO_WHATIF_CACHE", str(tmp_path / "env-cache"))
    explicit = BackendSpec(name="replay", trace_path=str(trace), whatif_cache=str(cache))
    for spec in (explicit, "replay"):
        monkeypatch.setenv("REPRO_BACKEND_TRACE", str(trace))
        replayer = build_backend(spec, toy_workload)
        assert replayer.whatif_cache is None
        assert replayer.empty_workload_cost() == recorder.empty_workload_cost()
        replayer.close()
    assert not cache.exists()
    assert not (tmp_path / "env-cache").exists()


def test_replay_misses_raise_with_the_pair(tmp_path, toy_workload, toy_candidates):
    trace = tmp_path / "trace.jsonl"
    recorder = build_backend(
        BackendSpec(name="analytic", trace_path=str(trace)), toy_workload
    )
    recorder.empty_workload_cost()
    recorder.close()

    replayer = build_backend(
        BackendSpec(name="replay", trace_path=str(trace)), toy_workload
    )
    query = toy_workload.queries[0]
    with pytest.raises(TraceMissError) as excinfo:
        for config in (frozenset([ix]) for ix in toy_candidates):
            replayer.whatif_cost(query, config)
    assert excinfo.value.qid == query.qid
    assert excinfo.value.key


def test_replay_refuses_an_unreadable_or_malformed_trace(tmp_path, toy_workload):
    missing = tmp_path / "missing.jsonl"
    with pytest.raises(TraceError, match="cannot read"):
        build_backend(BackendSpec(name="replay", trace_path=str(missing)), toy_workload)
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text("{not json\n", encoding="utf-8")
    with pytest.raises(TraceError, match="garbled.jsonl:1"):
        build_backend(BackendSpec(name="replay", trace_path=str(garbled)), toy_workload)


def test_trace_file_layout(tmp_path, toy_workload, counting_pairs):
    trace = tmp_path / "trace.jsonl"
    recorder = build_backend(
        BackendSpec(name="analytic", trace_path=str(trace)), toy_workload
    )
    for query, config in counting_pairs[:3]:
        recorder.whatif_cost(query, config)
    written = recorder.trace.flush()
    assert written == len(recorder.trace)
    assert recorder.trace.path == trace

    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert lines[0]["type"] == "header"
    assert lines[0]["identity"]["workload"] == workload_fingerprint(toy_workload)
    assert all(line["type"] == "cost" for line in lines[1:])
    keys = [(line["qid"], line["key"]) for line in lines[1:]]
    assert keys == sorted(keys)
    journal = PersistentWhatIfCache(trace, mode="replay")
    assert journal.identity == recorder.cache_identity()
    assert len(journal) == written
    # No temporary file is left beside the trace.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.jsonl"]


def test_record_requires_a_trace_path():
    # Recording is trace_path on a pricing backend, not a backend of its own.
    with pytest.raises(TuningError, match="unknown backend"):
        BackendSpec(name="record")
    with pytest.raises(TuningError, match="trace path"):
        BackendSpec(name="replay")
    assert BackendSpec(name="noisy", trace_path="t.jsonl").records
    assert not BackendSpec(name="replay", trace_path="t.jsonl").records
