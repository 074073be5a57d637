"""Steadiness report: run each workload over several seeds, print spreads.

Usage::

    python3 perfbench/steadiness.py [--workload NAME ...] [--seeds 10] [--first-seed 0]

For every end-to-end metric of ``BENCHMARK.json`` it prints the median of
the per-run values, their first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and that spread as a share of the metric's bound.
A metric is steady when its spread stays well below its bound (the
benchmark aims for a third of it); ``setup_s`` is reported but only its
median has to hold between two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT
from workloads import WORKLOADS


def run_once(config: dict, workload: str, seed: int) -> tuple[dict, str]:
    """One untraced benchmark run: its parsed result line and its stderr summary."""
    command = [sys.executable, str(ROOT / config["command"][1])]
    command += config["command"][2:]
    command += ["--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    notes = proc.stderr.strip().splitlines()
    return json.loads(proc.stdout.strip().splitlines()[-1]), notes[-1] if notes else ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in args.workload or [w["name"] for w in config["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, notes = run_once(config, workload, seed)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds
            ) + f" ({notes})", flush=True)
        print(f"{workload}: {args.seeds} runs, {attempted} sessions, {failed} failed")
        print(f"  {'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median if median else float("inf")
            print(f"  {name:<16} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>8.2%} {bound:>6.2f} {spread / bound:>12.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
