"""Record the reference outputs the benchmark checks sessions against.

Usage::

    python3 perfbench/record_references.py [--workload NAME ...]

Runs every (workload, tuner seed) round the benchmark can schedule and
stores each session's recommendation digest, ``calls_used`` and event
stream digest in ``perfbench/references.json``. Record only at a commit
whose behaviour is the accepted baseline: the benchmark then fails any
session that differs from it.
"""

from __future__ import annotations

import argparse
import json
import time

from run import RUN_LIMIT_S, run_round
from workloads import REFERENCES, TUNER_SEED_POOL, WORKLOADS

FIELDS = ("configuration", "calls_used", "events")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    for name in args.workload or sorted(WORKLOADS):
        spec = WORKLOADS[name]
        entries = {}
        for tuner_seed in range(TUNER_SEED_POOL) if spec.seeded else [0]:
            report = run_round(
                name, tuner_seed, False, time.monotonic() + RUN_LIMIT_S, record=True
            )
            for session in report["sessions"]:
                if session["errors"]:
                    raise SystemExit(f"{session['key']}: {session['errors']}")
                entries[session["key"]] = {field: session[field] for field in FIELDS}
            print(f"{name} seed {tuner_seed}: recorded", flush=True)
        # Re-read and merge so recorders of different workloads can run
        # side by side.
        merged = (
            json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        )
        merged[name] = entries
        REFERENCES.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
