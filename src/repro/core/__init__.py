"""The paper's primary contribution: MCTS-based budget-aware enumeration.

* :mod:`repro.core.mdp` — the MDP view of configuration search (Section 5.1).
* :mod:`repro.core.node` — search-tree nodes with per-action prior, visit
  and return arrays.
* :mod:`repro.core.selection` — action-selection policies: UCT (Eq. 5) and
  the prior-seeded ε-greedy variant (Eq. 6), Section 6.1.
* :mod:`repro.core.priors` — Algorithm 4: singleton percentage improvements
  under a budget, with query/index selection policies.
* :mod:`repro.core.rollout` — rollout policies (Section 6.2).
* :mod:`repro.core.extraction` — BCE and BG extraction (Section 6.3).
* :mod:`repro.core.search` — Algorithm 3: the episode loop and budget
  allocation (Section 5.2).
"""

from repro.core.mdp import IndexTuningMDP
from repro.core.node import TreeNode
from repro.core.priors import compute_singleton_priors
from repro.core.search import MCTSSearch

__all__ = [
    "IndexTuningMDP",
    "MCTSSearch",
    "TreeNode",
    "compute_singleton_priors",
]
