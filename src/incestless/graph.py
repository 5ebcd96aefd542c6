"""Time-dependent DAG of information flow between (agent, epoch) nodes.

Nodes are numbered 1..N with n = s + S*(k-1) for agent s and epoch k, so
node order is causal order.  The adjacency matrix A has A[i-1, j-1] = 1
iff the action of node i reaches node j (an edge i -> j); causality makes
A strictly upper triangular.  The transitive closure T has T[i-1, j-1] = 1
iff i == j or a directed path i -> j exists.

All public node / agent / epoch indices are 1-based; the underlying numpy
arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DagViolationError, GraphFormatError, WeightOverflowError


def reindex(s: int, k: int, num_agents: int) -> int:
    """Map (agent s, epoch k) to the scalar node index s + S*(k-1)."""
    if not 1 <= s <= num_agents:
        raise ValueError(f"agent index {s} out of range 1..{num_agents}")
    if k < 1:
        raise ValueError(f"epoch index {k} must be positive")
    return s + num_agents * (k - 1)


def deindex(n: int, num_agents: int) -> tuple[int, int]:
    """Inverse of reindex: node index -> (agent, epoch)."""
    if n < 1:
        raise ValueError(f"node index {n} must be positive")
    s = (n - 1) % num_agents + 1
    k = (n - 1) // num_agents + 1
    return s, k


def validate_dag(adjacency: np.ndarray) -> list[tuple[int, int]]:
    """Return the list of (i, j) entries (1-based) violating strict upper triangularity.

    An empty list means the matrix is a valid DAG adjacency in causal order.
    Raises GraphFormatError for non-square or non-binary input.
    """
    a = np.asarray(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphFormatError(f"adjacency must be square, got shape {a.shape}")
    if not ((a == 0) | (a == 1)).all():
        raise GraphFormatError("adjacency entries must be 0 or 1")
    bad = np.argwhere(np.tril(a) != 0)
    return [(int(i) + 1, int(j) + 1) for i, j in bad]


def transitive_closure(adjacency: np.ndarray) -> np.ndarray:
    """Reachability matrix of a strictly upper-triangular adjacency.

    Computed node by node in causal order: a node's reach-from set is
    itself plus the union of its in-neighbours' reach-from sets, which all
    lie before it.  This avoids the path-counting overflow of the
    (I - A)^-1 formula while producing the same 0/1 matrix.
    """
    violations = validate_dag(adjacency)
    if violations:
        raise DagViolationError(violations)
    a = np.asarray(adjacency, dtype=bool)
    # row j of the transpose is the reach-from set of node j+1
    reached_from = np.eye(a.shape[0], dtype=bool)
    for j, into in enumerate(a.T):
        preds = np.flatnonzero(into[:j])
        if preds.size:
            reached_from[j, :j] = reached_from[preds, :j].any(axis=0)
    return reached_from.T.astype(np.int8, order="C")


@dataclass(frozen=True)
class CommGraph:
    """Immutable communication graph with cached transitive closure."""

    adjacency: np.ndarray
    num_agents: int
    num_epochs: int
    closure: np.ndarray = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=np.int8)
        expected = self.num_agents * self.num_epochs
        if a.shape[0] != expected:
            raise ConfigError(
                f"adjacency size {a.shape[0]} != agents*epochs = {expected}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)
        t = transitive_closure(a)
        t.flags.writeable = False
        object.__setattr__(self, "closure", t)

    @property
    def size(self) -> int:
        return self.adjacency.shape[0]

    def extract_t_b(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """First n-1 entries of column n of the closure (t_n) and adjacency (b_n)."""
        self._check_node(n)
        t_n = self.closure[: n - 1, n - 1].copy()
        b_n = self.adjacency[: n - 1, n - 1].copy()
        return t_n, b_n

    def digest(self) -> str:
        """Short stable identifier of the edge set, for trace provenance."""
        import hashlib

        return hashlib.sha256(self.adjacency.tobytes()).hexdigest()[:16]

    def _check_node(self, n: int):
        if not 1 <= n <= self.size:
            raise ValueError(f"node {n} out of range 1..{self.size}")


def weight_matrix(graph: CommGraph, nodes=None) -> np.ndarray:
    """Columns of W = I - T^-1 for the given 1-based nodes (default all), rows 1..max(nodes).

    Column n holds w_n, the solution of T_{n-1} w_n = t_n, above zeros, from
    one exact integer back substitution.  Each row is also computed in
    float64 from the verified rows below it: a true weight beyond int64
    wraps the int64 row by a multiple of 2^64 but moves the float row by far
    less than 2^63, so the two then differ by more than 2^63.
    """
    cols = np.unique(np.arange(1, graph.size + 1) if nodes is None else nodes) - 1
    rows = int(cols.max(initial=-1)) + 1
    w = np.zeros((rows, cols.size), dtype=np.int64)
    w_float = np.zeros((rows, cols.size))
    for j in range(rows - 2, -1, -1):
        first = int(np.searchsorted(cols, j, side="right"))  # columns of nodes after j+1
        reach, t_j = graph.closure[j, j + 1:rows], graph.closure[j, cols[first:]]
        exact = t_j - reach.astype(np.int64) @ w[j + 1:, first:]
        approx = t_j - reach.astype(np.float64) @ w_float[j + 1:, first:]
        wrapped = np.flatnonzero(np.abs(approx - exact) > 2.0**63)
        if wrapped.size:
            raise WeightOverflowError(node=int(cols[first + wrapped[0]]) + 1, index=j + 1)
        w[j, first:] = w_float[j, first:] = exact
    return w


def compute_weights(graph: CommGraph, n: int) -> np.ndarray:
    """Optimal incest-removal weights w_n (length n-1, integer valued): column n of W."""
    if n < 1 or n > graph.size:
        raise ValueError(f"node {n} out of range 1..{graph.size}")
    return weight_matrix(graph, [n])[: n - 1, 0]


def check_constraint(weights: np.ndarray, b_n: np.ndarray) -> list[int]:
    """Indices j (1-based) where w_n(j) != 0 but there is no edge j -> n.

    Empty list means the availability constraint holds at this node: every
    log-belief the removal weights need actually arrives over a direct edge.
    """
    w, b = np.asarray(weights), np.asarray(b_n)
    if w.shape != b.shape:
        raise ValueError(f"length mismatch: weights {w.shape} vs b_n {b.shape}")
    return violations(w[:, None], b[:, None]).get(1, [])


def violations(weights: np.ndarray, adjacency: np.ndarray) -> dict[int, list[int]]:
    """Map node -> violating indices: the nonzero columns of (W != 0) & (A == 0)."""
    bad = (weights != 0) & (adjacency == 0)
    return {int(c) + 1: [int(j) + 1 for j in np.flatnonzero(bad[:, c])]
            for c in np.flatnonzero(bad.any(axis=0))}


def constraint_report(graph: CommGraph) -> dict[int, list[int]]:
    """Map node -> violating indices, for every node with a violation."""
    return violations(weight_matrix(graph), graph.adjacency)


# ---------------------------------------------------------------------------
# topology generation

TOPOLOGY_KINDS = ("chain41", "complete_delay", "star_delay", "random4", "explicit")


@dataclass(frozen=True)
class TopologySpec:
    """Named topology with its parameters.

    kind:
      chain41        41 nodes: node 1 broadcasts to everyone, sequential
                     chain i -> i+1, and node 41 hears every predecessor
      complete_delay every ordered agent pair exchanges each epoch with a
                     delay drawn uniformly from `delays`
      star_delay     hub-and-spoke: spokes talk to the hub only, the hub
                     talks to every spoke, delays uniform from `delays`
      random4        each ordered pair per epoch is independently delayed
                     by 1, 2 or 3 epochs, or disconnected (each prob 1/4)
      explicit       adjacency loaded from an edge-list file at `path`
    """

    kind: str
    agents: int = 6
    epochs: int = 4
    delays: tuple[int, ...] = (1, 2)
    path: str | None = None

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigError(f"unknown topology kind {self.kind!r}")
        if self.kind == "explicit" and not self.path:
            raise ConfigError("explicit topology requires a graph file path")
        if self.agents < 1 or self.epochs < 1:
            raise ConfigError("agents and epochs must be positive")
        if self.kind == "star_delay" and self.agents < 2:
            raise ConfigError("star topology needs at least 2 agents")
        if self.kind in ("complete_delay", "star_delay") and not self.delays:
            raise ConfigError("delay set must be non-empty")


def generate_topology(spec: TopologySpec, rng: np.random.Generator) -> CommGraph:
    """Materialize a TopologySpec as a CommGraph.

    A delay tau from (s, k) to s' becomes the edge
    reindex(s, k) -> reindex(s', k + tau) when k + tau <= K; messages that
    would arrive after the horizon are dropped.
    """
    if spec.kind == "chain41":
        n = 41
        a = np.zeros((n, n), dtype=np.int8)
        a[0, 1:] = 1
        for i in range(n - 1):
            a[i, i + 1] = 1
        a[:-1, n - 1] = 1
        return CommGraph(a, num_agents=n, num_epochs=1)

    if spec.kind == "explicit":
        return load_graph(spec.path)

    s_cnt, k_cnt = spec.agents, spec.epochs
    n = s_cnt * k_cnt
    a = np.zeros((n, n), dtype=np.int8)

    def connect(s_from, s_to, k, tau):
        if k + tau <= k_cnt:
            a[reindex(s_from, k, s_cnt) - 1, reindex(s_to, k + tau, s_cnt) - 1] = 1

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
    return CommGraph(a, num_agents=s_cnt, num_epochs=k_cnt)


def topology_rng(seed: int) -> np.random.Generator:
    """Generator used for topology realization under a scenario seed.

    Child 0 of SeedSequence(seed); children 1.. drive Monte Carlo runs, so
    a graph realization never shares a stream with the runs over it.
    """
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def find_clean_seed(spec: TopologySpec, start: int = 0, tries: int = 1000) -> int | None:
    """First scenario seed in [start, start+tries) whose graph satisfies the constraint."""
    for seed in range(start, start + tries):
        g = generate_topology(spec, topology_rng(seed))
        if not constraint_report(g):
            return seed
    return None


def augment_for_constraint(graph: CommGraph) -> CommGraph:
    """Add the direct edges the availability constraint asks for.

    Every violation (n, j) has t_n(j) = 1 already (a nonzero weight implies
    reachability), so the added edge j -> n is redundant for the closure and
    leaves every weight vector unchanged; one pass makes the graph clean.
    """
    weights = weight_matrix(graph)
    needed = (weights != 0) & (graph.adjacency == 0)
    if not needed.any():
        return graph
    fixed = CommGraph(graph.adjacency | needed, num_agents=graph.num_agents,
                      num_epochs=graph.num_epochs)
    assert (fixed.closure == graph.closure).all()
    return fixed


# ---------------------------------------------------------------------------
# edge-list file format: header "N <size>", then one "<i> <j>" line per edge

def save_graph(graph: CommGraph, path) -> None:
    with open(path, "w") as f:
        f.write(f"N {graph.size}\n")
        for i, j in np.argwhere(graph.adjacency):
            f.write(f"{i + 1} {j + 1}\n")


def load_graph(path) -> CommGraph:
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines or not lines[0].startswith("N "):
        raise GraphFormatError(f"{path}: missing 'N <size>' header")
    try:
        size = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise GraphFormatError(f"{path}: bad header {lines[0]!r}")
    a = np.zeros((size, size), dtype=np.int8)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{path}: bad edge line {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (1 <= i < j <= size):
            raise GraphFormatError(f"{path}: edge {i}->{j} requires 1 <= i < j <= {size}")
        a[i - 1, j - 1] = 1
    return CommGraph(a, num_agents=size, num_epochs=1)


def graph_from_edges(size: int, edges) -> CommGraph:
    """Convenience constructor from 1-based (i, j) pairs."""
    a = np.zeros((size, size), dtype=np.int8)
    for i, j in edges:
        a[i - 1, j - 1] = 1
    return CommGraph(a, num_agents=size, num_epochs=1)
