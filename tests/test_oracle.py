"""Every action-driven mode against an exact integer oracle: the binary
cascade model (conftest's binary_oracle and multiplicity_matrix), which is
derived from the integers of the graph alone, not from the package's action
rule or fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incestless import (ScenarioConfig, TopologySpec, augment_for_constraint, constraint_report,
                        default_model, generate_topology, monte_carlo, run_once, run_tables,
                        seed_rng, topology_rng)

from conftest import binary_model, binary_oracle, draw_dag, multiplicity_matrix

MODES = ("naive", "removal", "idealized")
RUNS = 20


def build(kind, agents=1, epochs=1, seed=0, augment=True):
    graph = generate_topology(TopologySpec(kind=kind, agents=agents, epochs=epochs),
                              topology_rng(seed))
    return augment_for_constraint(graph) if augment else graph


# name -> (graph, force)
GRAPHS = {
    "chain41": (lambda: build("chain41"), False),
    "augmented random4 5x6 seed 7": (lambda: build("random4", 5, 6, 7), False),
    "augmented star_delay 6x8 seed 2": (lambda: build("star_delay", 6, 8, 2), False),
    "augmented complete_delay 4x6 seed 3": (lambda: build("complete_delay", 4, 6, 3), False),
    "forced random4 6x8 seed 1": (lambda: build("random4", 6, 8, 1, augment=False), True),
}


@pytest.fixture(scope="module")
def graphs():
    """Each graph, its force flag and its M per mode, built once."""
    built = {}
    for name, (make, force) in GRAPHS.items():
        graph = make()
        built[name] = graph, force, {mode: multiplicity_matrix(graph, mode) for mode in MODES}
    return built


def test_the_forced_graph_violates_the_constraint(graphs):
    graph, force, _ = graphs["forced random4 6x8 seed 1"]
    assert force and len(constraint_report(graph)) == 23


@pytest.mark.parametrize("p", [0.6, 0.7, 0.9])
@pytest.mark.parametrize("name", GRAPHS)
def test_every_action_and_public_belief_follows_the_oracle(graphs, name, p):
    graph, force, multiplicity = graphs[name]
    model = default_model(states=2, actions=2, likelihood=[[p, 1 - p], [1 - p, p]])
    # run_once runs on the graph it is given; the config's topology is not read
    config = ScenarioConfig(model=model, topology=TopologySpec(kind="chain41"), modes=MODES,
                            runs=RUNS, seed=1, force=force)
    tables = run_tables(config, graph)
    s = np.log(p) - np.log(1 - p)
    counts = dict.fromkeys(("cascade", "free", "log-odds checked"), 0)
    for r in range(1, RUNS + 1):
        trace = run_once(config, graph, seed_rng(config.seed, r), tables=tables)
        for row, mode in enumerate(MODES):
            actions, k = binary_oracle(multiplicity[mode], trace.observations)
            assert trace.actions[row].tolist() == actions, (mode, r)
            k = np.array(k, dtype=np.float64)
            pub = trace.public[row]
            both = (pub > 1e-12).all(axis=1)
            log_odds = np.log(pub[both, 0]) - np.log(pub[both, 1])
            assert np.abs(log_odds - k[both] * s).max(initial=0.0) <= 1e-12, (mode, r)
            free = np.isin(k, (0, -1))
            counts["cascade"] += int((~free).sum())
            counts["free"] += int(free.sum())
            counts["log-odds checked"] += int(both.sum())
    # the runs reach both kinds of node, and the log-odds check is not vacuous
    assert all(counts.values()), counts


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_drawn_dags_follow_the_oracle(data):
    # every action of every mode on a drawn DAG of up to 12 nodes, forced where
    # it violates the constraint (on a graph that satisfies it, forcing changes
    # no coefficient)
    graph = draw_dag(data, max_size=12)
    model = binary_model(data.draw(st.sampled_from([0.4, 0.3, 0.1, 1e-200]), label="q"))
    config = ScenarioConfig(model=model, topology=TopologySpec(kind="chain41"), modes=MODES,
                            runs=3, seed=data.draw(st.integers(0, 2**16), label="seed"),
                            force=True)
    tables = run_tables(config, graph)
    multiplicity = {mode: multiplicity_matrix(graph, mode) for mode in MODES}
    for r in range(1, config.runs + 1):
        trace = run_once(config, graph, seed_rng(config.seed, r), tables=tables)
        for row, mode in enumerate(MODES):
            actions, _ = binary_oracle(multiplicity[mode], trace.observations)
            assert trace.actions[row].tolist() == actions, (mode, r)


def test_point_mass_beliefs_follow_the_oracle(graphs):
    # at q = 1e-200 a public belief two net signals toward state 2 holds
    # e^-921 on state 1, which is 0.0: each of its action tables is built from
    # a one-state live range
    graph, _, multiplicity = graphs["chain41"]
    config = ScenarioConfig(model=binary_model(1e-200), topology=TopologySpec(kind="chain41"),
                            modes=MODES, runs=RUNS, seed=1)
    tables = run_tables(config, graph)
    point_masses = 0
    for r in range(1, RUNS + 1):
        trace = run_once(config, graph, seed_rng(config.seed, r), tables=tables)
        for row, mode in enumerate(MODES):
            actions, _ = binary_oracle(multiplicity[mode], trace.observations)
            assert trace.actions[row].tolist() == actions, (mode, r)
        point_masses += int((trace.public == 0).any(axis=-1).sum())
    assert point_masses > 0


def chain_action_probabilities(p, size):
    """P(a_n = 1), n = 1..size, in the binary model with true state 1 and
    P(z = 1) = p, on a graph whose closure is a total order.

    Every node then hears every earlier one, so idealized's M = T - I gives
    k_n = d_1 + ... + d_{n-1}: k moves by +-1 while it is 0 or -1 and stops
    at 1 or -2, a four-state Markov chain from k_1 = 0.  A node takes action
    1 at k = 1, and at k = 0 or -1 exactly when it observes 1.
    """
    k = {-2: 0.0, -1: 0.0, 0: 1.0, 1: 0.0}
    probabilities = []
    for _ in range(size):
        probabilities.append(k[1] + p * (k[0] + k[-1]))
        k = {-2: k[-2] + (1 - p) * k[-1], -1: (1 - p) * k[0],
             0: p * k[-1], 1: k[1] + p * k[0]}
    return np.array(probabilities)


def test_chain41_action_frequencies_follow_the_markov_chain(graphs):
    # on chain41 removal's M is idealized's, T - I; each node's frequency of
    # action 1 over R runs lies within 4 standard errors of the chain's value
    # (largest z 1.22 at seed 5)
    graph, _, multiplicity = graphs["chain41"]
    assert (multiplicity["removal"] == multiplicity["idealized"]).all()
    runs, p = 2000, 0.7
    exact = chain_action_probabilities(p, graph.size)
    assert exact[-1] == pytest.approx(0.886076, abs=1e-6)
    config = ScenarioConfig(model=binary_model(1 - p), topology=TopologySpec(kind="chain41"),
                            true_state=1, modes=("removal", "idealized"), runs=runs, seed=5)
    table = monte_carlo(config, graph)
    error = np.sqrt(exact * (1 - exact) / runs)
    for mode in config.modes:
        frequency = (table.actions[mode] == 1).mean(axis=0)
        assert (np.abs(frequency - exact) <= 4 * error).all(), mode
