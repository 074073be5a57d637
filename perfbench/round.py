"""One benchmark round in a fresh process: set up, tune, check, report.

A round imports ``repro``, builds the workload and generates candidates
(set-up, timed from the ``--spawned`` mark), then runs the workload's
sessions one after another on the analytic backend with serial pricing and
the FCFS budget policy. Each session's output is checked; the round prints
one JSON object as the last line of standard output. With
``--speed-probe`` the round also reports its set-up and session times
rescaled to the reference host speed (``speed.py``).

Usage::

    PYTHONPATH=src python3 perfbench/round.py --workload mcts-tpcds \\
        --tuner-seed 0 --trace 0 --spawned <time.monotonic() at spawn> \\
        --work .bench_work/round
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from speed import SpeedProbe

# The probe starts before the imports below, so that its set-up window
# covers importing repro; main() parses --speed-probe again.
PROBE = SpeedProbe() if "--speed-probe" in sys.argv else None
if PROBE is not None:
    PROBE.start()
PROBE_BEGIN = time.perf_counter()

import repro  # noqa: E402
import repro.config  # noqa: E402
from tracing import SESSION, Tracer, install  # noqa: E402
from workloads import MAX_INDEXES, REFERENCES, WORKLOADS  # noqa: E402


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _tuners(tuner_seed: int) -> dict:
    """Session label -> tuner factory."""
    return {
        "mcts": lambda: repro.MCTSTuner(seed=tuner_seed),
        "vanilla": repro.VanillaGreedyTuner,
        "two_phase": repro.TwoPhaseGreedyTuner,
        "autoadmin": repro.AutoAdminGreedyTuner,
        "dta": repro.DTATuner,
        "vanilla_warm": repro.VanillaGreedyTuner,
    }


def _check(facts: dict, result, candidates: set, budget: int, reference) -> list[str]:
    """Output checks of one session; each miss is one error string."""
    errors = []
    configuration = result.configuration
    if len(configuration) > MAX_INDEXES:
        errors.append(f"|C| = {len(configuration)} > K = {MAX_INDEXES}")
    if not configuration <= candidates:
        errors.append("C is not a subset of the candidates")
    if result.calls_used > budget:
        errors.append(f"calls_used {result.calls_used} > B = {budget}")
    derived = result.optimizer.derived_workload_cost(configuration)
    if result.estimated_cost != derived:
        errors.append(
            f"estimated_cost {result.estimated_cost!r} != "
            f"derived_workload_cost(C) {derived!r}"
        )
    if reference is not None:
        for key in ("configuration", "calls_used", "events"):
            if facts[key] != reference[key]:
                errors.append(f"{key} {facts[key]!r} != reference {reference[key]!r}")
    return errors


def _run_session(tracer, probe, label, tuner, workload, candidates, spec, work):
    """Tune once, returning the session's facts (and its live result)."""

    def session():
        result = tuner.tune(
            workload,
            budget=spec.budget,
            constraints=repro.TuningConstraints(max_indexes=MAX_INDEXES),
            candidates=candidates,
            optimizer_config=repro.config.ReproConfig(),
            budget_policy="fcfs",
            backend=repro.BackendSpec(
                name="analytic",
                pricing_jobs=1,
                whatif_cache=str(work / "whatif-cache") if spec.shared_cache else None,
            ),
        )
        result.optimizer.close()
        return result

    tracer.active = tracer.installed
    start = time.perf_counter()
    result = tracer.wrap(session, SESSION)()
    tune_s = time.perf_counter() - start
    tracer.active = False
    stats = result.optimizer.stats
    kinds = Counter(event.kind for event in result.events)
    facts = {
        "label": label,
        "tune_s": tune_s,
        "calls_used": result.calls_used,
        "stop_reason": result.stop_reason,
        "configuration": _digest(sorted(ix.display() for ix in result.configuration)),
        "events": _digest(
            json.dumps(event.to_json(), sort_keys=True) for event in result.events
        ),
        "lookups": stats.cache_hits + stats.cache_misses,
        "hits": stats.cache_hits,
        "persistent_hits": stats.persistent_hits,
        "cost_evaluations": stats.cost_evaluations,
        "granted": kinds["budget_grant"],
        "denied": kinds["budget_deny"],
        "event_count": len(result.events),
        "episodes": 0,
        "nodes": 0,
        "productive": 0,
    }
    if probe is not None:
        facts["scaled_tune_s"], facts["speed"] = probe.rescale(
            tune_s, start, start + tune_s
        )
    search = getattr(tuner, "last_search", None)
    if search is not None:
        facts["episodes"] = search.episodes
        facts["nodes"] = search.root.subtree_size()
        # Each episode spends at most one counted call, so the calls spent
        # between the "episodes" and "extraction" phases count the
        # episodes that spent one.
        phases = {
            event.payload["name"]: event.calls_used
            for event in result.events
            if event.kind == "phase"
        }
        facts["productive"] = phases["extraction"] - phases["episodes"]
    return facts, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--tuner-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--work", type=Path, required=True,
                        help="empty scratch directory for this round")
    parser.add_argument("--record", action="store_true",
                        help="skip the reference comparison (recording references)")
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the traced spans to this file")
    parser.add_argument("--speed-probe", action="store_true",
                        help="also report times rescaled to the reference host speed")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    probe = PROBE if args.speed_probe else None

    tracer = Tracer()
    if args.trace:
        install(tracer)

    def set_up():
        workload = repro.get_workload(spec.suite, scale=spec.scale)
        return workload, repro.CandidateGenerator(workload.schema).for_workload(workload)

    tracer.active = tracer.installed
    workload, candidates = tracer.wrap(set_up, "setup")()
    setup_s = time.monotonic() - args.spawned
    setup_end = time.perf_counter()
    tracer.active = False

    references = {} if args.record else json.loads(REFERENCES.read_text())[args.workload]
    candidate_set = set(candidates)
    tuners = _tuners(args.tuner_seed)
    sessions, by_label = [], {}
    for label in spec.sessions:
        key = f"{label}:{args.tuner_seed}"
        try:
            facts, result = _run_session(
                tracer, probe, label, tuners[label](), workload, candidates, spec,
                args.work,
            )
            reference = None if args.record else references[key]
            facts["errors"] = _check(facts, result, candidate_set, spec.budget, reference)
            if label == "vanilla_warm":
                if facts["persistent_hits"] != facts["cost_evaluations"]:
                    facts["errors"].append(
                        f"warm session recalled {facts['persistent_hits']} of "
                        f"{facts['cost_evaluations']} pricings"
                    )
                cold = by_label["vanilla"]
                for field in ("configuration", "calls_used", "events"):
                    if facts[field] != cold[field]:
                        facts["errors"].append(f"warm {field} differs from cold")
            facts["improvement"] = result.true_improvement()
            del result
        except Exception:  # a failed session is counted, not fatal
            tracer.active = False
            facts = {"label": label, "errors": [traceback.format_exc()]}
        facts["key"] = key
        sessions.append(facts)
        by_label[label] = facts
        gc.collect()

    report = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sessions": sessions,
    }
    if probe is not None:
        probe.stop()
        report["scaled_setup_s"], report["setup_speed"] = probe.rescale(
            setup_s, PROBE_BEGIN, setup_end
        )
    if args.trace:
        report["layers"] = _layers(tracer, SESSION, sessions, len(candidates), args.work)
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


def _layers(tracer, root: str, sessions: list[dict], candidates: int, work: Path) -> dict:
    """Per-layer self seconds and counts of the round's traced sessions."""
    seconds, counts = tracer.summary(root)
    setup_seconds, _ = tracer.summary("setup")

    def total(field: str) -> int:
        return sum(session.get(field, 0) for session in sessions)

    cache_files = list((work / "whatif-cache").glob("*")) if work.exists() else []
    return {
        "seconds": {
            "core.select_s": seconds.get("core.select", 0.0),
            "core.expand_s": seconds.get("core.expand", 0.0),
            "core.rollout_s": seconds.get("core.rollout", 0.0),
            "core.priors_s": seconds.get("core.priors", 0.0),
            "core.extract_s": seconds.get("core.extract", 0.0),
            "optimizer.derive_s": seconds.get("optimizer.derive", 0.0),
            "optimizer.prepare_s": seconds.get("optimizer.prepare", 0.0),
            "optimizer.whatif_self_s": seconds.get("optimizer.whatif", 0.0),
            "optimizer.price_s": seconds.get("optimizer.price", 0.0),
            "backend.cache_load_s": seconds.get("backend.cache_load", 0.0),
            "backend.cache_flush_s": seconds.get("backend.cache_flush", 0.0),
            "budget.self_s": seconds.get("budget", 0.0),
            "tuners.self_s": seconds.get(root, 0.0),
        },
        "setup": {
            "workload.build_s": setup_seconds.get("workload.build", 0.0),
            "workload.candidates_s": setup_seconds.get("workload.candidates", 0.0),
        },
        "counts": {
            "core.nodes": total("nodes"),
            "core.episodes": total("episodes"),
            "core.productive": total("productive"),
            "optimizer.derive_calls": counts.get("optimizer.derive", 0),
            "optimizer.prepared": counts.get("optimizer.prepare", 0),
            "optimizer.lookups": total("lookups"),
            "optimizer.hits": total("hits"),
            "optimizer.priced": counts.get("optimizer.price", 0),
            "backend.cache_hits": total("persistent_hits"),
            "backend.cache_bytes_written": sum(f.stat().st_size for f in cache_files),
            "budget.granted": total("granted"),
            "budget.denied": total("denied"),
            "budget.events": total("event_count"),
            "workload.candidates": candidates,
            "trace.spans": len(tracer.start),
        },
    }


if __name__ == "__main__":
    sys.exit(main())
