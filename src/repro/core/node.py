"""Search-tree nodes (the CreateNode bookkeeping of Algorithm 3).

Each node represents a state (configuration). Its outgoing actions are kept
in canonical candidate order, with arrays parallel to them:

* ``prior`` — the singleton prior that stands in for ``Q̂(s, a)`` before the
  first visit (Section 6.1.2);
* ``visits`` — ``n(s, a)``;
* ``returns`` — the summed observed returns (fractions in ``[0, 1]``), so
  ``Q̂(s, a) = returns / visits`` once visited;
* ``positions`` — each action's position in the root's action list, the
  index into search-wide per-action arrays such as RAVE's AMAF statistics.

Expanded children are keyed by action position. A child's actions and
arrays are its parent's minus the action taken, so creating a node costs a
few array copies rather than one lookup per action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from repro.catalog import Index
from repro.config import TuningConstraints


@dataclass(eq=False)
class TreeNode:
    """One state in the MCTS search tree.

    Attributes:
        state: The configuration this node represents.
        actions: Available actions in canonical order (fixed at creation).
        prior: Per-action prior ``Q̂`` before the first visit (clamped to 0).
        visits: Per-action visit counts ``n(s, a)``.
        returns: Per-action summed returns.
        positions: Per-action position in the root's action list.
        children: Expanded successors keyed by action position.
        total_visits: ``N(s)`` — times an episode passed through this node.
        rolled_out: Whether the node has had its first (rollout) visit; a
            leaf that has not been rolled out is simulated, one that has is
            expanded (Algorithm 3's "visited before" test).
    """

    state: frozenset[Index]
    actions: list[Index]
    prior: np.ndarray
    positions: np.ndarray
    visits: np.ndarray = field(init=False)
    returns: np.ndarray = field(init=False)
    children: dict[int, "TreeNode"] = field(default_factory=dict)
    total_visits: int = 0
    rolled_out: bool = False

    def __post_init__(self) -> None:
        self.visits = np.zeros(len(self.actions), dtype=np.int64)
        self.returns = np.zeros(len(self.actions))

    @classmethod
    def create(
        cls,
        state: frozenset[Index],
        actions: Sequence[Index] = (),
        priors: Mapping[Index, float] | None = None,
        *,
        parent: "TreeNode | None" = None,
        taken: int = -1,
        constraints: TuningConstraints | None = None,
    ) -> "TreeNode":
        """CreateNode.

        A root takes ``A(s)`` as ``actions`` and the singleton ``priors``
        (0 for actions without one; negative priors are clamped to 0).

        A child takes its ``parent``, the position ``taken`` of the action
        that led to it and the search ``constraints`` instead: its actions
        are the parent's minus the one taken — none at the cardinality
        limit — and are re-checked against the constraints only when a
        storage cap is set. Storage only grows down a path, so filtering the
        parent's actions equals filtering every candidate.
        """
        if parent is None:
            actions = list(actions)
            prior = np.array(
                [max(0.0, priors.get(a, 0.0)) if priors else 0.0 for a in actions],
                dtype=np.float64,
            )
            return cls(state, actions, prior, np.arange(len(actions)))
        if len(state) >= constraints.max_indexes:
            return cls(state, [], parent.prior[:0], parent.positions[:0])
        actions = parent.actions[:taken] + parent.actions[taken + 1 :]
        prior = np.delete(parent.prior, taken)
        positions = np.delete(parent.positions, taken)
        if constraints.max_storage_bytes is not None:
            keep = np.fromiter(
                (
                    constraints.admits(state, extra_bytes=a.estimated_size_bytes)
                    for a in actions
                ),
                dtype=bool,
                count=len(actions),
            )
            actions = list(compress(actions, keep))
            prior, positions = prior[keep], positions[keep]
        return cls(state, actions, prior, positions)

    @property
    def is_leaf(self) -> bool:
        """A node with no expanded children is a tree leaf."""
        return not self.children

    @property
    def is_terminal(self) -> bool:
        """Terminal states have no actions at all."""
        return not self.actions

    def q_values(self) -> np.ndarray:
        """``Q̂(s, ·)``: observed mean return, or the prior before any visit."""
        visited = self.visits > 0
        return np.divide(self.returns, self.visits, out=self.prior.copy(), where=visited)

    def update(self, position: int, reward: float) -> None:
        """Fold one observed episode return into this node's statistics."""
        self.total_visits += 1
        self.visits[position] += 1
        self.returns[position] += reward

    def best_action_by_q(self) -> Index | None:
        """The action with the highest ``Q̂`` (ties broken by order)."""
        if not self.actions:
            return None
        return self.actions[int(np.argmax(self.q_values()))]

    def subtree_size(self) -> int:
        """Number of nodes in this subtree (diagnostics)."""
        return 1 + sum(child.subtree_size() for child in self.children.values())
