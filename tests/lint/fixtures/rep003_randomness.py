"""REP102 zero-hop fixtures: global RNG state vs injected generators."""

import random

import numpy as np
from random import shuffle


def unseeded(items):
    random.seed(42)  # repro-lint-expect: REP102
    value = random.random()  # repro-lint-expect: REP102
    pick = random.choice(items)  # repro-lint-expect: REP102
    shuffle(items)  # repro-lint-expect: REP102
    noise = np.random.rand(3)  # repro-lint-expect: REP102
    return value, pick, noise


def seeded(seed, items):
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    rng.shuffle(items)
    return rng.random() + np_rng.random()


def justified():
    return random.random()  # repro-lint: off[REP102]


# Module level: an import-time reseed of the global state.
random.seed(0)  # repro-lint-expect: REP102
