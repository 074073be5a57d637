"""Regenerate ``mcts_golden.json`` — the MCTS search-kernel oracle.

The snapshot pins whole MCTS sessions bit for bit: the recommended
configuration, the exact ``estimated_cost``, ``calls_used``, the checkpoint
history, digests of the what-if call log (query, configuration and cost of
each call) and of the session event stream, and the size of the search
(episodes run, tree nodes built). It was captured from the per-action-object
tree, before the search kernel moved to per-node arrays; the array kernel
must reproduce every case.

The cases cover the paper-default ε-greedy search on TPC-DS (K = 10,
B ∈ {500, 2000}) and on the toy workload at B = 2000, plus one case per
non-default knob: UCT, Boltzmann, RAVE, random rollout, BCE extraction and
a storage constraint.

Candidate generation breaks some ties in set iteration order, so the
candidate sets (and with them the sessions) depend on string hashing; the
script re-runs itself with ``PYTHONHASHSEED=0`` when that is not already
set. Run from the repo root to regenerate (only when the workloads or the
paper semantics deliberately change — never to paper over a kernel
regression), or with ``--print`` to write the snapshots to standard output
instead::

    PYTHONPATH=src python tests/fixtures/gen_mcts_golden.py [--print]
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.config import MCTSConfig, TuningConstraints
from repro.tuners import MCTSTuner
from repro.workload.suites.registry import get_workload

#: (label, workload name, MCTS knobs, budget, K, storage cap, seed).
CASES = [
    ("tpcds_b500", "tpcds", {}, 500, 10, None, 0),
    ("tpcds_b2000", "tpcds", {}, 2000, 10, None, 0),
    ("toy_b2000", "toy", {}, 2000, 10, None, 0),
    ("uct_tpch", "tpch", {"selection_policy": "uct"}, 300, 5, None, 1),
    ("boltzmann_tpch", "tpch", {"selection_policy": "boltzmann"}, 300, 5, None, 2),
    ("rave_tpch", "tpch", {"rave_weight": 0.5}, 300, 5, None, 3),
    ("random_rollout_toy", "toy", {"rollout_policy": "random"}, 400, 6, None, 4),
    ("bce_tpch", "tpch", {"extraction": "bce"}, 300, 5, None, 5),
    ("storage_tpch", "tpch", {}, 300, 6, 1_000_000_000, 6),
]


def run_case(case):
    """Tune one case; returns ``(result, tuner)``."""
    _, workload_name, knobs, budget, max_indexes, storage, seed = case
    tuner = MCTSTuner(config=MCTSConfig(**knobs), seed=seed)
    result = tuner.tune(
        get_workload(workload_name),
        budget=budget,
        constraints=TuningConstraints(
            max_indexes=max_indexes, max_storage_bytes=storage
        ),
    )
    return result, tuner


def _names(configuration) -> list[str]:
    return sorted(ix.display() for ix in configuration)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def snapshot(result, tuner) -> dict:
    """Flatten one MCTS session into JSON-stable form."""
    search = tuner.last_search
    return {
        "configuration": _names(result.configuration),
        "estimated_cost": result.estimated_cost,
        "baseline_cost": result.baseline_cost,
        "calls_used": result.calls_used,
        "history": [[calls, _names(config)] for calls, config in result.history],
        "call_log": _digest(
            json.dumps([entry.qid, _names(entry.configuration), entry.cost])
            for entry in result.optimizer.call_log
        ),
        "events": _digest(
            json.dumps(event.to_json(), sort_keys=True) for event in result.events
        ),
        "episodes": search.episodes,
        "nodes": search.root.subtree_size(),
    }


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        sys.exit(subprocess.run([sys.executable, *sys.argv], env=env).returncode)
    golden = {case[0]: snapshot(*run_case(case)) for case in CASES}
    text = json.dumps(golden, indent=1) + "\n"
    if "--print" in sys.argv:
        sys.stdout.write(text)
        return
    out = Path(__file__).with_name("mcts_golden.json")
    out.write_text(text)
    print(f"wrote {out} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
