"""Rollout policies (Section 6.2).

A rollout extends a leaf's configuration by ``l`` randomly chosen indexes:

* **random step** — ``l`` uniform in ``{0, .., K − d}`` (the standard,
  unbiased policy);
* **myopic step** — fixed ``l`` (the paper's best setting is ``l = 0``:
  evaluate the leaf's own configuration, exploring the neighbourhood of the
  current state rather than remote regions).

Index choice within the rollout follows the action-selection flavour:
uniform under UCT, prior-proportional under ε-greedy.
"""

from __future__ import annotations

import random

import numpy as np

from repro.catalog import Index
from repro.config import MCTSConfig, TuningConstraints
from repro.core.selection import sample_proportional


class RolloutPolicy:
    """Generates a configuration by randomly inserting indexes from a state.

    Args:
        config: MCTS knobs (rollout flavour, step size, selection policy).
        constraints: Cardinality/storage constraints the rollout respects.
        priors: Singleton priors for prior-weighted sampling (may be empty).
    """

    def __init__(
        self,
        config: MCTSConfig,
        constraints: TuningConstraints,
        priors: dict[Index, float] | None = None,
    ):
        self._config = config
        self._constraints = constraints
        self._priors = priors or {}

    def _step_size(self, depth: int, rng: random.Random) -> int:
        """The look-ahead step size ``l``."""
        remaining = max(0, self._constraints.max_indexes - depth)
        if self._config.rollout_policy == "myopic":
            return min(self._config.myopic_step, remaining)
        return rng.randint(0, remaining)

    def _sample_weighted(
        self, pool: list[Index], count: int, rng: random.Random
    ) -> list[Index]:
        """Sample ``count`` distinct indexes, prior-proportional (Eq. 6)."""
        chosen: list[Index] = []
        available = list(pool)
        weights = np.array([max(0.0, self._priors.get(ix, 0.0)) for ix in available])
        for _ in range(min(count, len(available))):
            pick = sample_proportional(weights, rng)
            chosen.append(available.pop(pick))
            weights = np.delete(weights, pick)
        return chosen

    def rollout(
        self,
        state: frozenset[Index],
        actions: list[Index],
        rng: random.Random,
    ) -> frozenset[Index]:
        """Produce the sampled configuration for a leaf at ``state``."""
        step = self._step_size(len(state), rng)
        if step == 0 or not actions:
            return state
        if self._config.selection_policy == "uct":
            count = min(step, len(actions))
            additions = rng.sample(actions, count)
        else:
            additions = self._sample_weighted(actions, step, rng)
        configuration = set(state)
        for index in additions:
            if not self._constraints.admits(
                configuration, extra_bytes=index.estimated_size_bytes
            ):
                continue
            configuration.add(index)
        return frozenset(configuration)
