"""Tuning-session benchmark: run one workload for a while, print its metrics.

Usage::

    python3 perfbench/run.py --workload mcts-tpcds --seed 0 --seconds 40 --trace 0

Run from the repository root. Each round runs in a fresh process
(``round.py``): one client, sessions one after another. Rounds repeat until
the next one would overrun ``--seconds`` (at least one per tuner seed).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds of the first tuner seed and reports the per-layer split.
See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, tuner_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

#: Hard cap on one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0


class RoundError(RuntimeError):
    """A round process crashed or overran: the benchmark itself is broken."""


def run_round(workload: str, tuner_seed: int, trace: bool, deadline: float,
              *, record: bool = False, spans: Path | None = None,
              probe: bool = False) -> dict:
    """Run one round in a fresh process and return its report."""
    work = WORK / f"round-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # Real-M candidate generation breaks selectivity ties in set iteration
    # order, so its inputs depend on string hashing; pin it.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(HERE / "round.py"), "--workload", workload,
        "--tuner-seed", str(tuner_seed), "--trace", str(int(trace)),
        "--work", str(work),
    ]
    if record:
        command.append("--record")
    if probe:
        command.append("--speed-probe")
    if spans is not None:
        command += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned", repr(spawned)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round {workload}/{tuner_seed} overran the run limit") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RoundError(
            f"round {workload}/{tuner_seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["round_s"] = time.monotonic() - spawned
    return report


def _tally(report: dict) -> tuple[int, int]:
    """(attempted, failed) sessions of one round, echoing failures to stderr."""
    failed = 0
    for session in report["sessions"]:
        if session["errors"]:
            failed += 1
            print(f"FAILED {session['key']}: " + "; ".join(session["errors"]),
                  file=sys.stderr)
    return len(report["sessions"]), failed


def _tune_s(report: dict, key: str = "tune_s") -> float:
    """Seconds of a round's sessions (a session that raised has none)."""
    return sum(s.get(key, 0.0) for s in report["sessions"])


def _seed_mean(rounds: list[dict], seeds: list[int], value) -> float:
    """Mean over tuner seeds of the median of ``value(round)`` over that seed's rounds.

    Tuner seeds differ in how much work their sessions do; taking each
    seed's median first keeps a seed that got an extra round from weighing
    more, and the mean over seeds varies less between runs than a median
    of three.
    """
    by_seed: dict[int, list[float]] = {}
    for index, report in enumerate(rounds):
        by_seed.setdefault(seeds[index % len(seeds)], []).append(value(report))
    return statistics.mean(statistics.median(values) for values in by_seed.values())


def measure(name: str, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics over repeated rounds.

    Times are rescaled to the reference host speed by the round's speed
    probe (``speed.py``); the raw medians go to standard error.
    """
    spec = WORKLOADS[name]
    seeds = tuner_seeds(spec, seed)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    rounds: list[dict] = []
    while True:
        rounds.append(
            run_round(name, seeds[len(rounds) % len(seeds)], False, deadline, probe=True)
        )
        elapsed = time.monotonic() - started
        typical = statistics.mean(r["round_s"] for r in rounds)
        if len(rounds) >= len(seeds) and elapsed + typical > seconds:
            break
    attempted = failed = 0
    for report in rounds:
        a, f = _tally(report)
        attempted, failed = attempted + a, failed + f

    def tune(report: dict) -> float:
        return _tune_s(report, "scaled_tune_s")

    def calls_per_s(report: dict) -> float:
        calls = sum(s.get("calls_used", 0) for s in report["sessions"])
        return calls / tune(report) if tune(report) else 0.0

    # Each (session, tuner seed) once, so the mean is fixed by the seed.
    improvements = {
        s["key"]: s["improvement"] for r in rounds for s in r["sessions"] if "improvement" in s
    }
    metrics = {
        "setup_s": (statistics.median(r["scaled_setup_s"] for r in rounds), "s"),
        "tune_s": (_seed_mean(rounds, seeds, tune), "s"),
        "calls_per_s": (_seed_mean(rounds, seeds, calls_per_s), "1/s"),
        "improvement_pct": (
            statistics.mean(improvements.values()) if improvements else 0.0, "%"
        ),
        "peak_rss_mb": (_seed_mean(rounds, seeds, lambda r: r["peak_rss_mb"]), "MB"),
    }
    speeds = [s["speed"] for r in rounds for s in r["sessions"] if "speed" in s]
    print(f"{len(rounds)} rounds; raw medians: setup "
          f"{statistics.median(r['setup_s'] for r in rounds):.3f} s, tune "
          f"{statistics.median(_tune_s(r) for r in rounds):.3f} s; host speed "
          f"{min(speeds, default=0):.3f}-{max(speeds, default=0):.3f}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    """The traced run: per-layer split of the first tuner seed's round.

    Untraced and traced rounds of the same tuner seed alternate, so the
    tracing overhead compares equal work. Every traced round must repeat
    the same counts; the reported times are means over traced rounds, so
    the per-layer self times add up to the reported traced ``tune_s``.
    """
    spec = WORKLOADS[name]
    tuner_seed = tuner_seeds(spec, seed)[0]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    spans = WORK / f"spans-{name}.npz"
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(run_round(name, tuner_seed, False, deadline))
        traced.append(run_round(name, tuner_seed, True, deadline, spans=spans))
        elapsed = time.monotonic() - started
        typical = statistics.mean(
            p["round_s"] + t["round_s"] for p, t in zip(plain, traced)
        )
        if elapsed + typical > seconds:
            break
    attempted = failed = 0
    for report in plain + traced:
        a, f = _tally(report)
        attempted, failed = attempted + a, failed + f
    counts = traced[0]["layers"]["counts"]
    for report in traced[1:]:
        if report["layers"]["counts"] != counts:
            print(f"FAILED traced counts differ between rounds: {counts} vs "
                  f"{report['layers']['counts']}", file=sys.stderr)
            failed += len(report["sessions"])
    mean = statistics.mean
    layer_s = {
        key: mean(r["layers"]["seconds"][key] for r in traced)
        for key in traced[0]["layers"]["seconds"]
    }
    setup = {
        key: mean(r["layers"]["setup"][key] for r in traced)
        for key in traced[0]["layers"]["setup"]
    }
    traced_tune = mean(_tune_s(r) for r in traced)
    plain_tune = mean(_tune_s(r) for r in plain)
    mcts = [s for s in traced[0]["sessions"] if s["label"] == "mcts"]
    short = sum(
        1 for s in mcts
        if not s["errors"] and s["calls_used"] < spec.budget and s["stop_reason"] is None
    )
    episodes = counts["core.episodes"]
    lookups = counts["optimizer.lookups"]
    metrics = {key: (value, "s") for key, value in layer_s.items()}
    metrics.update({key: (value, "s") for key, value in setup.items()})
    metrics.update({
        "core.nodes": (counts["core.nodes"], "count"),
        "core.episodes": (episodes, "count"),
        "core.productive_frac": (
            counts["core.productive"] / episodes if episodes else 0.0, "ratio"
        ),
        "core.short_of_budget": (short, "count"),
        "optimizer.derive_calls": (counts["optimizer.derive_calls"], "count"),
        "optimizer.prepared": (counts["optimizer.prepared"], "count"),
        "optimizer.lookups": (lookups, "count"),
        "optimizer.hit_rate": (
            counts["optimizer.hits"] / lookups if lookups else 0.0, "ratio"
        ),
        "optimizer.priced": (counts["optimizer.priced"], "count"),
        "optimizer.price_share": (
            layer_s["optimizer.price_s"] / traced_tune if traced_tune else 0.0, "ratio"
        ),
        "backend.cache_hits": (counts["backend.cache_hits"], "count"),
        "backend.cache_bytes_written": (counts["backend.cache_bytes_written"], "bytes"),
        "budget.granted": (counts["budget.granted"], "count"),
        "budget.denied": (counts["budget.denied"], "count"),
        "budget.events": (counts["budget.events"], "count"),
        "workload.candidates": (counts["workload.candidates"], "count"),
        "trace.tune_s": (traced_tune, "s"),
        "trace.untraced_tune_s": (plain_tune, "s"),
        "trace.overhead_pct": (
            (traced_tune / plain_tune - 1.0) * 100.0 if plain_tune else 0.0, "%"
        ),
        "trace.unattributed_s": (traced_tune - sum(layer_s.values()), "s"),
        "trace.spans": (counts["trace.spans"], "count"),
    })
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = measure_traced if args.trace else measure
    try:
        outcome = run(args.workload, args.seed, args.seconds)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
