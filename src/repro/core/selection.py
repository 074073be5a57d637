"""Action-selection policies (Section 6.1).

Two policies are provided:

* :class:`UCTPolicy` — Equation 5: pick ``argmax_a [ Q̂(s,a) + λ·sqrt(ln N(s)
  / n(s,a)) ]``; unvisited actions score infinity, so every child must be
  visited once before any is revisited (the slow-progress behaviour the
  paper observes under small budgets).
* :class:`EpsilonGreedyPriorPolicy` — the paper's variant of ε-greedy
  (Equation 6): sample action ``a`` with probability proportional to
  ``Q̂(s,a)``, where unvisited actions carry the singleton-improvement
  prior computed by Algorithm 4.

Policies work on a node's action arrays at once and return the *position*
of the chosen action in ``node.actions``. Proportional draws — Equation 6
here, prior-weighted rollouts in :mod:`repro.core.rollout` — all go through
:func:`sample_proportional`.
"""

from __future__ import annotations

import abc
import math
import random
from typing import Callable

import numpy as np

from repro.core.node import TreeNode

#: Signature of an action-value accessor: ``Q̂(s, ·)`` for every action of a
#: node. Defaults to :meth:`TreeNode.q_values`, but a search may substitute
#: a blended estimate (e.g. RAVE, Section 8).
QFunction = Callable[[TreeNode], np.ndarray]


def sample_proportional(weights: np.ndarray, rng: random.Random) -> int:
    """Draw position ``i`` with probability ``weights[i] / Σ weights``.

    One ``rng.random()`` draw is compared against the running sum: the
    first position whose cumulative weight reaches ``u · total`` wins.
    ``np.cumsum`` adds left to right, one element at a time, so ``total``
    is the naive sum on every interpreter (``sum()`` compensates since
    Python 3.12). All-zero weights fall back to a uniform ``rng.choice``.

    Args:
        weights: Non-negative weights (at least one).
        rng: The search's random stream.
    """
    cumulative = np.cumsum(weights)
    total = cumulative[-1]
    if total <= 0.0:
        return rng.choice(range(len(weights)))
    return int(np.searchsorted(cumulative, rng.random() * total, side="left"))


class SelectionPolicy(abc.ABC):
    """Strategy interface for SelectAction in Algorithm 3."""

    def __init__(self, q_fn: QFunction | None = None):
        self._q = q_fn or TreeNode.q_values

    @abc.abstractmethod
    def select(self, node: TreeNode, rng: random.Random) -> int:
        """The position in ``node.actions`` (non-empty) of the chosen action."""


class UCTPolicy(SelectionPolicy):
    """UCB1-based selection (Kocsis & Szepesvári), Equation 5."""

    def __init__(self, exploration: float = 2.0**0.5, q_fn: QFunction | None = None):
        super().__init__(q_fn)
        if exploration < 0:
            raise ValueError(f"exploration constant must be >= 0, got {exploration}")
        self._lambda = exploration

    @property
    def exploration(self) -> float:
        return self._lambda

    def scores(self, node: TreeNode) -> np.ndarray:
        """The UCB score of every action at ``node`` (infinite when unvisited)."""
        visits = node.visits
        log_n = math.log(max(node.total_visits, 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            bonus = self._lambda * np.sqrt(log_n / visits)
        return np.where(visits == 0, np.inf, self._q(node) + bonus)

    def select(self, node: TreeNode, rng: random.Random) -> int:
        unvisited = np.flatnonzero(node.visits == 0)
        if unvisited.size:
            return int(rng.choice(unvisited))
        return int(np.argmax(self.scores(node)))


class EpsilonGreedyPriorPolicy(SelectionPolicy):
    """Prior-seeded proportional sampling (Equation 6).

    ``Pr(a|s) = Q̂(s,a) / Σ_b Q̂(s,b)`` where ``Q̂`` falls back to the action
    prior before the first visit. Degenerates to uniform sampling when every
    Q̂ is zero (e.g. no priors computed and no rewards observed yet).
    """

    def select(self, node: TreeNode, rng: random.Random) -> int:
        return sample_proportional(np.maximum(self._q(node), 0.0), rng)


class BoltzmannPolicy(SelectionPolicy):
    """Boltzmann (softmax) exploration — the classic ε-greedy variant the
    paper's Equation 6 simplifies (kept for ablations).

    Args:
        temperature: τ > 0; lower values are greedier.
    """

    def __init__(self, temperature: float = 0.1, q_fn: QFunction | None = None):
        super().__init__(q_fn)
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self._tau = temperature

    @property
    def temperature(self) -> float:
        return self._tau

    def select(self, node: TreeNode, rng: random.Random) -> int:
        values = self._q(node) / self._tau
        # math.exp per element: np.exp is not guaranteed to round the same.
        shifted = (values - values.max()).tolist()
        return sample_proportional(np.array(list(map(math.exp, shifted))), rng)
