"""REP101's zero-hop case is exempt under optimizer/: the metering layer
prices directly."""


def price_directly(model, optimizer, prepared, key, config):
    cost = model.cost(prepared, key)
    truth = optimizer.true_workload_cost(config)
    return cost, truth
