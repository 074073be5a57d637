"""The benchmark's workloads, their sessions, and how a seed picks inputs.

Imported by the driver (``run.py``) and by the round process
(``round.py``); it must not import ``repro``, so the driver stays light.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Reference outputs recorded by ``record_references.py``.
REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Cardinality constraint K of every session.
MAX_INDEXES = 10

#: MCTS tuner seeds with recorded reference outputs (``references.json``).
#: ``--seed 15`` (tuner seeds 45-47) is held out: it was not used to tune
#: the benchmark, and a claimed gain must also hold on it.
TUNER_SEED_POOL = 48

#: Distinct tuner seeds one MCTS run cycles through.
SEEDS_PER_RUN = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a suite, a budget, and a session sequence.

    Attributes:
        suite: ``repro`` workload name passed to ``get_workload``.
        scale: Structural scale passed to ``get_workload``.
        budget: What-if call budget B of every session.
        sessions: Session labels run in order in one round (see
            ``round._tuners``).
        shared_cache: Whether the round's sessions share one persistent
            what-if cache directory that starts empty.
    """

    suite: str
    scale: float
    budget: int
    sessions: tuple[str, ...]
    shared_cache: bool

    @property
    def seeded(self) -> bool:
        """Whether ``--seed`` picks tuner seeds (only MCTS takes one)."""
        return "mcts" in self.sessions


WORKLOADS: dict[str, Workload] = {
    "mcts-tpcds": Workload(
        suite="tpcds", scale=1.0, budget=500, sessions=("mcts",),
        shared_cache=False,
    ),
    "mcts-toy-deep": Workload(
        suite="toy", scale=1.0, budget=2000, sessions=("mcts",),
        shared_cache=False,
    ),
    "greedy-realm": Workload(
        suite="real_m", scale=0.1, budget=2000,
        sessions=("vanilla", "two_phase", "autoadmin", "dta", "vanilla_warm"),
        shared_cache=True,
    ),
}


def tuner_seeds(workload: Workload, seed: int) -> list[int]:
    """The tuner seeds a run with ``--seed seed`` cycles through, in order."""
    if not workload.seeded:
        return [0]
    return [
        (SEEDS_PER_RUN * seed + offset) % TUNER_SEED_POOL
        for offset in range(SEEDS_PER_RUN)
    ]
