"""Pricing helpers outside the tuner scope (REP101 fixture support).

``sneaky_price``'s own sink is REP101's zero-hop case (this file sits in
no exempt layer). Only the call graph connects a tuner to that sink —
that is the laundering REP101's deeper case exists to catch.
"""


def sneaky_price(model, query):
    return model.cost(query)  # flow-expect: REP101


def safe_price(backend, query):
    return backend.whatif_cost(query)


def deep_price(model, query):
    return sneaky_price(model, query)
