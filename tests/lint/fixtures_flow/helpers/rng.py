"""RNG factories (REP102 fixture support).

``random.Random()`` with no seed is no module-global *state call*, so
REP102's zero-hop case stays silent here; laundering an unseeded
generator through a factory into search code is its deeper case.
"""

import random


def make_global_gen():
    return random.Random()


def fresh_gen():
    return make_global_gen()


def make_rng(seed):
    return random.Random(seed)
