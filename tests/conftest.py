import numpy as np
import pytest

from incestless import (
    CommGraph,
    DagViolationError,
    action_likelihood,
    default_model,
    graph_from_edges,
    normalize_log,
    validate_dag,
)

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
