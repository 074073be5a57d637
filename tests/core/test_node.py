"""Search-tree node bookkeeping tests."""

import pytest

from repro.catalog import Index
from repro.config import TuningConstraints
from repro.core.node import TreeNode


@pytest.fixture
def actions(star_schema):
    fact = star_schema.table("fact")
    return [Index.build(fact, [c]) for c in ("fk1", "fk2", "cat")]


class TestActionStats:
    """The per-action statistic arrays behind ``Q̂(s, a)``."""

    def test_prior_before_visits(self, actions):
        node = TreeNode.create(frozenset(), actions, {actions[0]: 0.4})
        assert node.q_values()[0] == 0.4

    def test_mean_after_visits(self, actions):
        node = TreeNode.create(frozenset(), actions, {actions[0]: 0.4})
        node.update(0, 0.2)
        node.update(0, 0.6)
        assert node.q_values()[0] == pytest.approx(0.4)
        assert node.visits[0] == 2


class TestTreeNode:
    def test_create_seeds_priors(self, actions):
        node = TreeNode.create(frozenset(), actions, {actions[0]: 0.7})
        assert node.q_values()[0] == 0.7
        assert node.q_values()[1] == 0.0

    def test_negative_prior_clamped(self, actions):
        node = TreeNode.create(frozenset(), actions, {actions[0]: -0.5})
        assert node.q_values()[0] == 0.0

    def test_update_counts_visits(self, actions):
        node = TreeNode.create(frozenset(), actions)
        node.update(0, 0.5)
        node.update(1, 0.1)
        assert node.total_visits == 2
        assert node.visits[0] == 1

    def test_leaf_and_terminal(self, actions):
        node = TreeNode.create(frozenset(), actions)
        assert node.is_leaf
        assert not node.is_terminal
        terminal = TreeNode.create(frozenset(actions), [])
        assert terminal.is_terminal

    def test_best_action_by_q(self, actions):
        node = TreeNode.create(frozenset(), actions)
        node.update(1, 0.9)
        node.update(0, 0.2)
        assert node.best_action_by_q() == actions[1]

    def test_best_action_none_when_terminal(self, actions):
        assert TreeNode.create(frozenset(actions), []).best_action_by_q() is None

    def test_subtree_size(self, actions):
        limits = TuningConstraints(max_indexes=3)
        root = TreeNode.create(frozenset(), actions)
        child = TreeNode.create(
            frozenset(actions[:1]), parent=root, taken=0, constraints=limits
        )
        root.children[0] = child
        grandchild = TreeNode.create(
            frozenset(actions[:2]), parent=child, taken=0, constraints=limits
        )
        child.children[0] = grandchild
        assert root.subtree_size() == 3


class TestChildDerivation:
    """A child's actions and arrays are its parent's minus the one taken."""

    def test_child_drops_the_taken_action(self, actions):
        priors = {actions[0]: 0.3, actions[2]: 0.9}
        root = TreeNode.create(frozenset(), actions, priors)
        child = TreeNode.create(
            frozenset({actions[1]}),
            parent=root,
            taken=1,
            constraints=TuningConstraints(max_indexes=3),
        )
        assert child.actions == [actions[0], actions[2]]
        assert child.prior.tolist() == [0.3, 0.9]
        assert child.positions.tolist() == [0, 2]
        assert child.visits.tolist() == [0, 0]
        assert child.total_visits == 0

    def test_cardinality_limit_makes_a_terminal(self, actions):
        root = TreeNode.create(frozenset(), actions)
        child = TreeNode.create(
            frozenset({actions[0]}),
            parent=root,
            taken=0,
            constraints=TuningConstraints(max_indexes=1),
        )
        assert child.is_terminal
        assert len(child.prior) == len(child.positions) == 0

    def test_storage_cap_refilters_the_parent_actions(self, actions):
        # fk1 and fk2 are the same size and cat is larger: after fk1 there
        # is room for fk2 but not for cat.
        cap = 2 * actions[0].estimated_size_bytes
        assert actions[2].estimated_size_bytes > actions[1].estimated_size_bytes
        limits = TuningConstraints(max_indexes=3, max_storage_bytes=cap)
        root = TreeNode.create(frozenset(), actions, {actions[1]: 0.5})
        child = TreeNode.create(
            frozenset({actions[0]}), parent=root, taken=0, constraints=limits
        )
        assert child.actions == [actions[1]]
        assert child.prior.tolist() == [0.5]
        assert child.positions.tolist() == [1]
