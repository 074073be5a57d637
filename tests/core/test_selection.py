"""Action-selection policy tests (UCT and ε-greedy, Section 6.1)."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import Index
from repro.core.node import TreeNode
from repro.core.selection import (
    BoltzmannPolicy,
    EpsilonGreedyPriorPolicy,
    UCTPolicy,
    sample_proportional,
)


@pytest.fixture
def actions(star_schema):
    fact = star_schema.table("fact")
    return [Index.build(fact, [c]) for c in ("fk1", "fk2", "cat", "val")]


class TestUCT:
    def test_unvisited_scores_infinite(self, actions):
        node = TreeNode.create(frozenset(), actions)
        node.total_visits = 1
        assert UCTPolicy().scores(node)[0] == math.inf

    def test_unvisited_selected_first(self, actions):
        node = TreeNode.create(frozenset(), actions)
        node.update(0, 0.9)
        rng = random.Random(0)
        for _ in range(20):
            chosen = UCTPolicy().select(node, rng)
            assert chosen != 0 or all(node.visits > 0)

    def test_score_formula(self, actions):
        node = TreeNode.create(frozenset(), actions)
        for _ in range(3):
            node.update(0, 0.6)
        node.update(1, 0.2)
        policy = UCTPolicy(exploration=math.sqrt(2))
        expected = 0.6 + math.sqrt(2) * math.sqrt(math.log(4) / 3)
        assert policy.scores(node)[0] == pytest.approx(expected)

    def test_exploitation_with_zero_lambda(self, actions):
        node = TreeNode.create(frozenset(), actions)
        for position, reward in enumerate((0.1, 0.9, 0.3, 0.2)):
            node.update(position, reward)
        policy = UCTPolicy(exploration=0.0)
        assert policy.select(node, random.Random(0)) == 1

    def test_exploration_bonus_prefers_rarely_visited(self, actions):
        node = TreeNode.create(frozenset(), actions)
        # Same Q, very different visit counts.
        for _ in range(100):
            node.update(0, 0.5)
        node.update(1, 0.5)
        node.update(2, 0.5)
        node.update(3, 0.5)
        policy = UCTPolicy(exploration=1.0)
        chosen = policy.select(node, random.Random(0))
        assert chosen != 0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            UCTPolicy(exploration=-1.0)


class TestEpsilonGreedyPrior:
    def test_proportional_sampling(self, actions):
        node = TreeNode.create(
            frozenset(), actions, {actions[0]: 0.8, actions[1]: 0.2}
        )
        rng = random.Random(7)
        counts = Counter(
            EpsilonGreedyPriorPolicy().select(node, rng) for _ in range(2000)
        )
        # Eq. 6: Pr(a0) = 0.8, Pr(a1) = 0.2, others 0.
        assert counts[0] > counts[1] > 0
        assert counts[2] == 0
        assert counts[0] / 2000 == pytest.approx(0.8, abs=0.05)

    def test_uniform_when_no_signal(self, actions):
        node = TreeNode.create(frozenset(), actions)
        rng = random.Random(3)
        counts = Counter(
            EpsilonGreedyPriorPolicy().select(node, rng) for _ in range(2000)
        )
        assert len(counts) == len(actions)

    def test_observed_rewards_override_priors(self, actions):
        node = TreeNode.create(frozenset(), actions, {actions[0]: 0.9})
        # Visiting the prior-favoured action reveals it is bad.
        for _ in range(5):
            node.update(0, 0.0)
        node.update(1, 0.9)
        rng = random.Random(11)
        counts = Counter(
            EpsilonGreedyPriorPolicy().select(node, rng) for _ in range(500)
        )
        assert counts[1] > counts[0]


class TestBoltzmann:
    def test_greedier_at_low_temperature(self, actions):
        node = TreeNode.create(frozenset(), actions)
        node.update(0, 1.0)
        node.update(1, 0.5)
        node.update(2, 0.2)
        node.update(3, 0.1)
        rng = random.Random(5)
        cold = Counter(
            BoltzmannPolicy(temperature=0.01).select(node, rng) for _ in range(300)
        )
        assert cold[0] >= 295

    def test_uniform_at_high_temperature(self, actions):
        node = TreeNode.create(frozenset(), actions)
        node.update(0, 1.0)
        node.update(1, 0.0)
        rng = random.Random(5)
        hot = Counter(
            BoltzmannPolicy(temperature=100.0).select(node, rng) for _ in range(2000)
        )
        assert all(count > 300 for count in hot.values())

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            BoltzmannPolicy(temperature=0.0)


def _naive_draw(weights, rng):
    """Equation 6 as a left-to-right scan with a naively summed total."""
    total = 0.0
    for weight in weights:
        total += weight
    if total <= 0.0:
        return rng.choice(range(len(weights)))
    threshold = rng.random() * total
    cumulative = 0.0
    for position, weight in enumerate(weights):
        cumulative += weight
        if cumulative >= threshold:
            return position
    return len(weights) - 1


class TestSampleProportional:
    """The one Equation 6 sampler equals the naive scan, draw for draw."""

    def _assert_same_draws(self, weights, seed, draws=50):
        ours, naive = random.Random(seed), random.Random(seed)
        array = np.array(weights, dtype=np.float64)
        for _ in range(draws):
            assert sample_proportional(array, ours) == _naive_draw(weights, naive)

    def test_matches_naive_scan_where_compensated_sum_differs(self):
        weights = [0.1] * 10
        naive_total = 0.0
        for weight in weights:
            naive_total += weight
        # 0.1 * 10 sums to 0.9999999999999999 left to right, 1.0 compensated.
        assert naive_total != 1.0
        self._assert_same_draws(weights, seed=0, draws=2000)

    def test_all_zero_falls_back_to_uniform_choice(self):
        self._assert_same_draws([0.0] * 7, seed=3)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_matches_naive_scan(self, weights, seed):
        self._assert_same_draws(weights, seed)
