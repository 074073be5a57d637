"""No DBA baseline (Section 7.2.2): deep Q-learning over one-hot configurations.

The paper's adaptation of Sharma et al.'s No DBA: states are one-hot vectors
``h_C`` over the candidate universe, rewards come from what-if costs instead
of execution times, the agent is a DQN with three fully-connected layers of
96 relu units, and training runs on CPU.

Execution is round-based like the bandit baseline: an episode grows a
configuration index-by-index up to ``K``; after each growth step the current
configuration is evaluated with one what-if call per query (FCFS), and the
marginal improvement is the step reward. Transitions feed a replay buffer;
a periodically-synced target network stabilises the TD targets.
"""

from __future__ import annotations

import numpy as np

from repro.catalog import Index
from repro.nn import MLP, ReplayBuffer, Transition
from repro.optimizer.whatif import sequential_sum
from repro.rng import make_np_rng
from repro.tuners.base import Tuner, TuningSession


class NoDBATuner(Tuner):
    """DQN index selection with one-hot state encoding.

    Args:
        hidden: Hidden layer sizes (paper: three layers of 96).
        gamma: Discount factor.
        epsilon_start / epsilon_end: Linear exploration schedule.
        batch_size: Replay minibatch size.
        target_sync: Steps between target-network syncs.
        seed: RNG seed.
        max_episodes: Safety cap (the what-if budget is the real stop).
    """

    name = "no_dba"

    def __init__(
        self,
        hidden: tuple[int, ...] = (96, 96, 96),
        gamma: float = 0.9,
        epsilon_start: float = 1.0,
        epsilon_end: float = 0.1,
        batch_size: int = 32,
        target_sync: int = 25,
        seed: int | None = None,
        max_episodes: int = 200,
    ):
        self._hidden = hidden
        self._gamma = gamma
        self._eps_start = epsilon_start
        self._eps_end = epsilon_end
        self._batch_size = batch_size
        self._target_sync = target_sync
        self._seed = seed
        self._max_episodes = max_episodes

    def _enumerate(self, session: TuningSession) -> frozenset[Index]:
        optimizer = session.optimizer
        candidates = session.candidates
        constraints = session.constraints
        rng = make_np_rng(self._seed)
        workload = session.workload
        n = len(candidates)
        positions = {index: i for i, index in enumerate(candidates)}

        online = MLP(n, self._hidden, n, rng, learning_rate=1e-3)
        target = MLP(n, self._hidden, n, rng)
        target.set_parameters(online.get_parameters())
        replay = ReplayBuffer(capacity=2000, rng=rng)

        baseline = optimizer.empty_workload_cost()
        best: frozenset[Index] = frozenset()
        best_cost = baseline
        steps = 0

        def encode(configuration: set[Index]) -> np.ndarray:
            state = np.zeros(n)
            for index in configuration:
                state[positions[index]] = 1.0
            return state

        def evaluate(configuration: frozenset[Index]) -> float:
            return sequential_sum(
                q.weight * session.evaluated_cost(q, configuration)
                for q in workload
            )

        for episode in range(self._max_episodes):
            if session.exhausted:
                break
            fraction = episode / max(1, self._max_episodes - 1)
            epsilon = self._eps_start + (self._eps_end - self._eps_start) * fraction

            configuration: set[Index] = set()
            previous_cost = baseline
            for _ in range(constraints.max_indexes):
                if session.exhausted:
                    break
                available = [
                    index
                    for index in candidates
                    if index not in configuration
                    and constraints.admits(
                        configuration, extra_bytes=index.estimated_size_bytes
                    )
                ]
                if not available:
                    break
                state = encode(configuration)
                if rng.random() < epsilon:
                    chosen = available[int(rng.integers(len(available)))]
                else:
                    q_values = online.forward(state)[0]
                    chosen = max(available, key=lambda ix: q_values[positions[ix]])

                configuration.add(chosen)
                frozen = frozenset(configuration)
                cost = evaluate(frozen)
                reward = max(0.0, (previous_cost - cost) / max(baseline, 1e-9))
                done = len(configuration) >= constraints.max_indexes
                replay.push(
                    Transition(
                        state=state,
                        action=positions[chosen],
                        reward=reward,
                        next_state=encode(configuration),
                        done=done,
                    )
                )
                previous_cost = cost
                if cost < best_cost:
                    best, best_cost = frozen, cost
                    session.checkpoint(best)

                steps += 1
                if len(replay) >= self._batch_size:
                    self._train_batch(online, target, replay)
                if steps % self._target_sync == 0:
                    target.set_parameters(online.get_parameters())

        return best

    def _train_batch(self, online: MLP, target: MLP, replay: ReplayBuffer) -> None:
        batch = replay.sample(self._batch_size)
        states = np.stack([t.state for t in batch])
        next_states = np.stack([t.next_state for t in batch])
        actions = np.array([t.action for t in batch])
        rewards = np.array([t.reward for t in batch])
        done = np.array([t.done for t in batch])
        next_q = target.forward(next_states).max(axis=1)
        targets = rewards + self._gamma * next_q * (~done)
        online.train_step(states, actions, targets)
