import errno
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from incestless import (
    CommGraph,
    ConstraintViolationError,
    DagViolationError,
    WeightOverflowError,
    ZeroProbabilityActionError,
    action_likelihood,
    action_table,
    augment_for_constraint,
    default_model,
    graph_from_edges,
    normalize_log,
    sample_observation,
)
from incestless import graph as graphmod
from incestless.learning import LIKELIHOOD_FLOOR, fuse_terms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIAMOND_A_EDGES = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5), (1, 5), (2, 5)]
DIAMOND_B_EDGES = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5), (1, 5)]


WARNINGS_AS_ERRORS = ("-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
                      "-W", "error::FutureWarning")


def run_python(*args, **env):
    """python *args in a fresh process, with the warnings pyproject.toml
    makes errors (WARNINGS_AS_ERRORS), run from the repository root with
    the package imported from src/ and env's variables set."""
    env = {**os.environ, **env, "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture
def full_disk(monkeypatch):
    """graph.write_files' 5th write to a file raises ENOSPC, as on a full disk."""
    real_open = open

    class FullDisk:
        def __init__(self, file):
            self.file, self.writes = file, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, text):
            self.writes += 1
            if self.writes == 5:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.file.write(text)

    monkeypatch.setattr(graphmod, "open",
                        lambda *args, **kwargs: FullDisk(real_open(*args, **kwargs)),
                        raising=False)


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


@pytest.fixture
def weight_solves(monkeypatch):
    """The graphs whose W is solved during the test, one entry per solve,
    counted at graph._float_weights, the first step of CommGraph.weights."""
    solved = []
    solve = graphmod._float_weights

    def counted(graph):
        solved.append(graph)
        return solve(graph)

    monkeypatch.setattr(graphmod, "_float_weights", counted)
    return solved


@pytest.fixture
def limb_solves(monkeypatch):
    """(first, known) of each call of graph._int64_weights during the test."""
    calls = []
    solve = graphmod._int64_weights

    def counted(graph, first, known):
        calls.append((first, known))
        return solve(graph, first, known)

    monkeypatch.setattr(graphmod, "_int64_weights", counted)
    return calls


def limb_weights(graph):
    """W by graph._int64_weights alone: the limb solve of every row and
    every column, from first = 0 and nothing known, of shape (0, N)."""
    return graphmod._int64_weights(graph, 0, np.zeros((0, graph.size), dtype=np.int64))


def random_dag(rng, size, edge_prob=0.25):
    """Random strictly upper-triangular adjacency matrix."""
    a = (rng.random((size, size)) < edge_prob).astype(np.int8)
    return np.triu(a, k=1)


def draw_dag(data, max_size=14):
    """A drawn DAG of 1..max_size nodes, augmented for the constraint or not."""
    size = data.draw(st.integers(1, max_size), label="size")
    bits = data.draw(st.lists(st.booleans(), min_size=size * (size - 1) // 2,
                              max_size=size * (size - 1) // 2), label="edges")
    a = np.zeros((size, size), dtype=np.int8)
    a[np.triu_indices(size, 1)] = bits
    graph = CommGraph(a)
    if data.draw(st.booleans(), label="augment"):
        graph = augment_for_constraint(graph)
    return graph


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
    a = np.asarray(adjacency, dtype=np.float64)
    violations = [(int(i) + 1, int(j) + 1) for i, j in np.argwhere(np.tril(a))]
    if violations:
        raise DagViolationError(violations)
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


def blocks_by_closure(graph):
    """Reference for CommGraph.blocks: a scan of the closure, not the edges.

    A node starts a new block when the last node before it that reaches it,
    read from the strict upper triangle of the closure, lies in the current
    block.
    """
    if graph.size == 0:
        return ()
    reach = np.triu(graph.closure, 1)[::-1]
    latest = np.where(reach.any(axis=0), graph.size - np.argmax(reach, axis=0), 0)
    bounds = [0]
    for m, last in enumerate(latest.tolist(), start=1):
        if last > bounds[-1]:
            bounds.append(m - 1)
    return tuple(zip(bounds, bounds[1:] + [graph.size]))


def exact_weight_matrix(graph):
    """Reference W = I - T^-1, in Python ints.

    One back substitution per row over object arrays: it cannot overflow
    or round, so CommGraph.weights must equal it wherever it returns.
    """
    t = graph.closure.astype(object)
    w = np.zeros(t.shape, dtype=object)
    for j in range(graph.size - 2, -1, -1):
        w[j, j + 1:] = t[j, j + 1:] - t[j, j + 1:].dot(w[j + 1:, j + 1:])
    return w


def multiplicity_matrix(graph, mode):
    """M[j, n]: how many times node j's action evidence counts in node n's
    fused evidence, in Python ints, for an action-driven mode.

    naive and removal fuse after-evidence with coefficients F (A, and the
    exact W * A), so node n's evidence is sum_j F[j, n] * (evidence_j +
    nu_j), and M = (I - F)^-1 - I: for naive, the path counts.  idealized
    fuses each increment once along the history, so M = T - I.
    """
    if mode == "idealized":
        m = graph.closure.astype(object)
        np.fill_diagonal(m, 0)
        return m
    f = graph.adjacency.astype(object)
    if mode == "removal":
        f = exact_weight_matrix(graph) * f
    m = np.zeros(f.shape, dtype=object)
    for n in range(graph.size):
        m[:, n] = f[:, n] + m[:, :n].dot(f[:n, n])
    return m


def binary_model(q):
    """The binary cascade model: two states, two actions, a uniform prior,
    0-1 cost and likelihood [[1-q, q], [q, 1-q]]."""
    return default_model(states=2, actions=2, likelihood=[[1 - q, q], [q, 1 - q]])


def binary_oracle(multiplicity, observations):
    """(actions, k) of one run in the binary model, from integers alone.

    The model has 2 states, 2 actions, a uniform prior, 0-1 cost and
    likelihood [[p, 1-p], [1-p, p]] (Bikhchandani, Hirshleifer and Welch
    1992).  Node n's public log-odds is k_n * log(p / (1-p)), with
    k_n = sum_j M[j, n] * d_j (multiplicity_matrix's M).  A node with k_n
    >= 1 takes action 1 and one with k_n <= -2 action 2, whatever it
    observes, so its action carries no evidence (d_n = 0); otherwise it
    takes its observation as its action, and d_n is +1 for action 1 and -1
    for action 2.  At k_n = -1 an observation of 1 leaves the agent exactly
    indifferent, and the lowest action, 1, wins the tie.
    """
    columns = multiplicity.T.tolist()
    actions, k, d = [], [], []
    for n, z in enumerate(observations.tolist()):
        k_n = sum(m * d_j for m, d_j in zip(columns[n][:n], d))
        a = 1 if k_n >= 1 else 2 if k_n <= -2 else z
        actions.append(a)
        k.append(k_n)
        d.append((1 if a == 1 else -1) if k_n in (0, -1) else 0)
    return actions, k


def int64_weights_by_rows(closure):
    """Reference for graph._int64_weights: W by an int64 back substitution,
    one row at a time, with a float shadow.

    Row j (0-based) reads closure[j, j+1:], what node j+1 reaches past
    itself.  The int64 row wraps modulo 2^64 when a true weight leaves
    int64, while the float row, computed from the verified rows below, moves
    by far less than 2^63; a difference beyond 2^63 names the node and index.
    """
    rows = closure.shape[0]
    w = np.zeros((rows, rows), dtype=np.int64)
    w_float = np.zeros((rows, rows))
    for j in range(rows - 2, -1, -1):
        t_j = closure[j, j + 1:]
        exact = t_j - t_j.astype(np.int64) @ w[j + 1:, j + 1:]
        approx = t_j - t_j.astype(np.float64) @ w_float[j + 1:, j + 1:]
        wrapped = np.flatnonzero(np.abs(approx - exact) > 2.0**63)
        if wrapped.size:
            raise WeightOverflowError(node=j + 2 + int(wrapped[0]), index=j + 1)
        w[j, j + 1:] = w_float[j, j + 1:] = exact
    return w


def layered(agents, layers):
    """Every node links to all nodes of the next layer (epoch); agent s of
    layer k is node s + agents*(k-1)."""
    return graph_from_edges(agents * layers, [
        (s + agents * (k - 1), s2 + agents * k)
        for k in range(1, layers)
        for s in range(1, agents + 1)
        for s2 in range(1, agents + 1)
    ])


def generate_topology_by_pairs(spec, rng):
    """The random topology kinds built with one draw per pair, in a Python loop.

    generate_topology draws all of a graph's pairs in one call; it must
    give this adjacency and leave rng in this state.
    """
    s_cnt, k_cnt = spec.agents, spec.epochs
    n = s_cnt * k_cnt
    a = np.zeros((n, n), dtype=np.int8)

    def connect(s_from, s_to, k, tau):
        if k + tau <= k_cnt:
            # agent s at epoch k is node s + S*(k-1)
            a[s_from + s_cnt * (k - 1) - 1, s_to + s_cnt * (k + tau - 1) - 1] = 1

    if spec.kind == "complete_delay":
        for k in range(1, k_cnt + 1):
            for s1 in range(1, s_cnt + 1):
                for s2 in range(1, s_cnt + 1):
                    if s1 != s2:
                        connect(s1, s2, k, int(rng.choice(spec.delays)))
    elif spec.kind == "star_delay":
        hub = 1
        for k in range(1, k_cnt + 1):
            for s in range(2, s_cnt + 1):
                connect(s, hub, k, int(rng.choice(spec.delays)))
                connect(hub, s, k, int(rng.choice(spec.delays)))
    elif spec.kind == "random4":
        for k in range(1, k_cnt + 1):
            for s1 in range(1, s_cnt + 1):
                for s2 in range(1, s_cnt + 1):
                    if s1 == s2:
                        continue
                    status = int(rng.integers(4))  # delay 1, 2, 3, or no link
                    if status < 3:
                        connect(s1, s2, k, status + 1)
    else:
        raise ValueError(f"{spec.kind!r} is not a random topology kind")
    return a


def violations_by_column(weights, adjacency):
    """Reference constraint report: one list per violating column."""
    bad = (weights != 0) & (adjacency == 0)
    return {int(c) + 1: [int(j) + 1 for j in np.flatnonzero(bad[:, c])]
            for c in np.flatnonzero(bad.any(axis=0))}


def prefix(graph, n):
    """Sub-graph on the first n nodes (the graph family is nested)."""
    if not 1 <= n <= graph.size:
        raise ValueError(f"node {n} out of range 1..{graph.size}")
    return CommGraph(graph.adjacency[:n, :n].copy())


def fuse_by_reduce(coeffs, evidence):
    """Reference for learning.fuse: one (M, L, K, X) product, reduced over K.

    The reduction adds the terms of each output row in ascending i, so it
    fixes the order fuse must match.
    """
    return np.add.reduce(coeffs[..., None] * evidence[:, None], axis=2)


def action_table_full_width(pub, model):
    """Reference for learning.action_table: every private belief and every
    expected cost over all X states, the actions on the last axis of the
    costs.

    The normaliser sums over the outer axis of the (..., Z, X) product, so
    in ascending state order; action_table must give the same table from
    its live states alone.
    """
    unnorm = pub[..., None, :] * model.likelihood.T
    total = unnorm.sum(axis=-1, keepdims=True)
    impossible = total == 0
    if impossible.any():
        unnorm = np.where(impossible, pub[..., None, :], unnorm)
        total = np.where(impossible, 1.0, total)
    costs = (unnorm / total) @ model.cost
    cmin = costs.min(axis=-1, keepdims=True)
    tol = 1e-9 * np.maximum(1.0, np.abs(cmin))
    return np.argmax(costs <= cmin + tol, axis=-1) + 1


def coefficient_table(tables):
    """The (M, N, N) coefficient table of every mode, in config.modes order:
    entry [k, n-1, i] weighs node i+1's stored row in node n's fusion, in
    mode k.  RunTables.coeffs holds obs_oracle's row last, so it goes back
    in at its index in config.modes."""
    m, modes = len(tables.stores_after), tables.config.modes
    if "obs_oracle" not in modes:
        return tables.coeffs
    return np.insert(tables.coeffs[:m], modes.index("obs_oracle"), tables.coeffs[m:], axis=0)


def after_action_update(pub, a, model):
    """Public belief updated with the evidence carried by action a."""
    nu = action_likelihood(pub, a, model)
    with np.errstate(divide="ignore"):
        return normalize_log(np.log(pub) + nu)


def reference_run_once(config, graph, rng):
    """Per-node, per-mode protocol loop that the stacked run_once must match bit for bit.

    Each node draws its own observation, and each mode fuses its received
    rows with fuse_terms, takes its action likelihood from its row of the
    action table and its estimate from one dot product.  A node whose fused
    evidence is not finite in some mode raises ValueError.  Returns the
    arrays a RunTrace holds, as a namespace.
    """
    model, modes = config.model, config.modes
    adjacency = graph.adjacency
    history = graph.closure - np.eye(graph.size, dtype=np.int8)
    table = {
        "naive": (adjacency, True, False),
        "idealized": (history, False, False),
        "obs_oracle": (history, False, True),
    }
    # only removal reads W, so a study without it runs where W leaves int64
    if "removal" in modes:
        weights = graph.weights
        constraint = violations_by_column(weights, adjacency)
        if constraint and not config.force:
            raise ConstraintViolationError(constraint)
        table["removal"] = (weights * adjacency if config.force else weights, True, False)
    if config.true_state == "random":
        x = int(rng.choice(model.num_states, p=model.prior)) + 1
    else:
        x = int(config.true_state)

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
        return np.log(np.maximum(lik, LIKELIHOOD_FLOOR))

    for n in range(1, size + 1):
        z = sample_observation(x, model, rng)
        obs_loglik = np.log(np.maximum(model.likelihood[:, z - 1], LIKELIHOOD_FLOOR))
        with np.errstate(over="ignore", invalid="ignore"):
            evidence = np.stack([
                fuse_terms(coeffs[k][n - 1, : n - 1], stored[k, : n - 1],
                           received[k][n - 1, : n - 1], node=n)
                for k in range(m)])
        if not np.isfinite(evidence).all():
            raise ValueError(f"node {n}: fused evidence left the float64 range")
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
