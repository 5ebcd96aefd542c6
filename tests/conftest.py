from types import SimpleNamespace

import numpy as np
import pytest

from incestless import (
    CommGraph,
    ConstraintViolationError,
    DagViolationError,
    ZeroProbabilityActionError,
    action_likelihood,
    action_table,
    default_model,
    graph_from_edges,
    normalize_log,
    sample_observation,
    validate_dag,
    weight_matrix,
)
from incestless.graph import violations
from incestless.learning import LIKELIHOOD_FLOOR, fuse_terms

DIAMOND_A_EDGES = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5), (1, 5), (2, 5)]
DIAMOND_B_EDGES = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5), (1, 5)]


@pytest.fixture
def diamond_a():
    """Five-node diamond whose node-5 weights are [-1, -1, 1, 1]; constraint holds."""
    return graph_from_edges(5, DIAMOND_A_EDGES)


@pytest.fixture
def diamond_b():
    """Same diamond without the 2 -> 5 edge; constraint fails at node 5."""
    return graph_from_edges(5, DIAMOND_B_EDGES)


@pytest.fixture(scope="session")
def model():
    return default_model()


def random_dag(rng, size, edge_prob=0.25):
    """Random strictly upper-triangular adjacency matrix."""
    a = (rng.random((size, size)) < edge_prob).astype(np.int8)
    return np.triu(a, k=1)


def bfs_closure(adjacency):
    """Independent reachability oracle: explicit BFS from every node."""
    a = np.asarray(adjacency)
    n = a.shape[0]
    t = np.eye(n, dtype=np.int8)
    for i in range(n):
        frontier = [i]
        seen = {i}
        while frontier:
            u = frontier.pop()
            for v in np.flatnonzero(a[u]):
                if v not in seen:
                    seen.add(int(v))
                    frontier.append(int(v))
        for v in seen:
            t[i, v] = 1
    return t


def closure_by_inversion(adjacency):
    """Closure via quantizing (I - A)^-1, whose entries count paths.

    Path counts grow combinatorially, so this is only reliable for small
    graphs; it is an independent cross-check of transitive_closure.
    """
    violations = validate_dag(adjacency)
    if violations:
        raise DagViolationError(violations)
    a = np.asarray(adjacency, dtype=np.float64)
    counts = np.linalg.inv(np.eye(a.shape[0]) - a)
    return (np.abs(counts) > 0.5).astype(np.int8)


def closure_by_edges(adjacency):
    """Reference closure: OR each in-neighbour's column into its target, one edge at a time."""
    a = np.asarray(adjacency, dtype=bool)
    t = np.eye(a.shape[0], dtype=bool)
    for j in range(a.shape[0]):
        for p in np.flatnonzero(a[:, j]):
            t[:, j] |= t[:, p]
    return t.astype(np.int8)


def prefix(graph, n):
    """Sub-graph on the first n nodes (the graph family is nested), as one epoch."""
    if not 1 <= n <= graph.size:
        raise ValueError(f"node {n} out of range 1..{graph.size}")
    return CommGraph(graph.adjacency[:n, :n].copy(), num_agents=n, num_epochs=1)


def after_action_update(pub, a, model, floor_zero_likelihood=True):
    """Public belief updated with the evidence carried by action a."""
    nu = action_likelihood(pub, a, model, floor_zero_likelihood)
    with np.errstate(divide="ignore"):
        return normalize_log(np.log(pub) + nu)


def reference_run_once(config, graph, rng, weights=None, constraint=None):
    """Per-node, per-mode protocol loop that the stacked run_once must match bit for bit.

    Each node draws its own observation, and each mode fuses its received
    rows with fuse_terms, takes its action likelihood from its row of the
    action table and its estimate from one dot product.  Returns the
    arrays a RunTrace holds, as a namespace.
    """
    model, modes = config.model, config.modes
    if weights is None:
        weights = weight_matrix(graph)
    if "removal" in modes:
        if constraint is None:
            constraint = violations(weights, graph.adjacency)
        if constraint and not config.force:
            raise ConstraintViolationError(constraint)
    if config.true_state == "random":
        x = int(rng.choice(model.num_states, p=model.prior)) + 1
    else:
        x = int(config.true_state)

    adjacency = graph.adjacency
    history = graph.closure - np.eye(graph.size, dtype=np.int8)
    table = {
        "naive": (adjacency, True, False),
        "removal": (weights * adjacency if config.force else weights, True, False),
        "idealized": (history, False, False),
        "obs_oracle": (history, False, True),
    }
    fs, stores_after, own_is_obs = zip(*(table[mode] for mode in modes))
    coeffs = [np.ascontiguousarray(f.T, dtype=np.float64) for f in fs]
    received = [(adjacency if after else history).T != 0 for after in stores_after]
    stores_after = np.array(stores_after)[:, None]
    m, size, x_states = len(modes), graph.size, model.num_states
    stored = np.zeros((m, size, x_states))
    out = SimpleNamespace(
        true_state=x, observations=np.zeros(size, dtype=np.int64),
        actions=np.zeros((m, size), dtype=np.int64), public=np.zeros((m, size, x_states)),
        after=np.zeros((m, size, x_states)), estimates=np.zeros((m, size)))
    log_prior = model.log_prior

    def likelihood(a, row):
        lik = np.add.reduce(model.likelihood.T[row == a], axis=0)
        if not lik.any():
            raise ZeroProbabilityActionError(
                f"action {a} is not selectable under any observation")
        if config.floor_zero_likelihood:
            return np.log(np.maximum(lik, LIKELIHOOD_FLOOR))
        with np.errstate(divide="ignore"):
            return np.log(lik)

    for n in range(1, size + 1):
        z = sample_observation(x, model, rng)
        obs_loglik = np.log(np.maximum(model.likelihood[:, z - 1], LIKELIHOOD_FLOOR))
        evidence = np.stack([
            fuse_terms(coeffs[k][n - 1, : n - 1], stored[k, : n - 1],
                       received[k][n - 1, : n - 1], node=n)
            for k in range(m)])
        pub = normalize_log(log_prior + evidence)
        acts = action_table(pub, model)
        a = acts[:, z - 1].tolist()
        own = np.stack([obs_loglik if own_is_obs[k] else likelihood(a[k], acts[k])
                        for k in range(m)])
        after_evidence = evidence + own
        stored[:, n - 1] = np.where(stores_after, after_evidence, own)
        after = normalize_log(log_prior + after_evidence)
        out.observations[n - 1] = z
        for k in range(m):
            out.actions[k, n - 1] = a[k]
            out.public[k, n - 1] = pub[k]
            out.after[k, n - 1] = after[k]
            if config.estimate_rule == "map":
                out.estimates[k, n - 1] = float(np.argmax(after[k]) + 1)
            else:
                out.estimates[k, n - 1] = float(after[k] @ np.arange(1, x_states + 1))
    return out
