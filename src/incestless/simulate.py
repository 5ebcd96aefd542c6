"""Protocol runs over a communication graph, in up to four modes.

A mode is one row of a table.  Node n fuses the rows S[i] stored by earlier
nodes, evidence_n = sum_i F[i, n] * S[i], then adds its own increment:

  mode        F      S[n] stores     own increment
  naive       A      after-evidence  nu   unit weights: data incest occurs
  removal     W      after-evidence  nu   optimal incest-removal weights
  idealized   T - I  own increment   nu   full-action-history benchmark
  obs_oracle  T - I  own increment   obs  raw-observation posterior (for scale)

A is the adjacency, T the closure, W = I - T^-1 (graph.weight_matrix; raises
WeightOverflowError beyond int64; masked by A under `force`), nu the action
log-likelihood.

A node's belief update is one step over arrays stacked by mode (M modes x X
states): one learning.fuse call sums the stored rows with the node's row of
a per-run coefficient table (M x N x N) for every mode at once, one
normalize_log gives the public beliefs, one action table
(learning.action_table) both the agents' actions and the observations each
nu sums over, and one action_likelihood call the nu of every mode.  The
stacked step is bit for bit the per-mode one.  A run draws its N
observations in one call, and all modes share them, so their traces differ
by aggregation alone.  RunTrace keeps the run as (M x N) and (M x N x X)
arrays; its `records` is a per-node view of them, built on demand.
SeedSequence(seed) child 0 draws the graph (graph.topology_rng, as
`gen-graph --seed`); child r drives run r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import graph as graphmod
from . import learning
from .errors import ConfigError, ConstraintViolationError
from .graph import CommGraph, TopologySpec
from .learning import StateModel

MODES = ("naive", "removal", "idealized", "obs_oracle")


@dataclass(frozen=True)
class ScenarioConfig:
    model: StateModel
    topology: TopologySpec
    true_state: int | str = "random"
    modes: tuple[str, ...] = ("naive", "removal", "idealized")
    runs: int = 100
    seed: int = 0
    estimate_rule: str = "mean"
    force: bool = False
    floor_zero_likelihood: bool = True

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        unknown = set(self.modes) - set(MODES)
        if unknown:
            raise ConfigError(f"unknown modes: {sorted(unknown)}")
        if self.true_state != "random":
            if not 1 <= int(self.true_state) <= self.model.num_states:
                raise ConfigError(
                    f"true_state {self.true_state} out of range "
                    f"1..{self.model.num_states}"
                )
        if self.estimate_rule not in ("map", "mean"):
            raise ConfigError(f"unknown estimate rule {self.estimate_rule!r}")


@dataclass(frozen=True)
class NodeRecord:
    node: int
    observation: int
    action: int
    public: np.ndarray
    after: np.ndarray
    estimate: float


@dataclass
class RunTrace:
    """One run in every mode: row k of each per-mode array is modes[k], and
    entry n-1 along the node axis is node n."""

    true_state: int
    graph_digest: str
    modes: tuple[str, ...]
    observations: np.ndarray  # (N,) int, shared by every mode
    actions: np.ndarray       # (M, N) int
    public: np.ndarray        # (M, N, X) public belief, before the node acts
    after: np.ndarray         # (M, N, X) belief after the node's own increment
    estimates: np.ndarray     # (M, N)

    @property
    def records(self) -> dict[str, list[NodeRecord]]:
        """mode -> one NodeRecord per node, built from the arrays on each access;
        the beliefs in it are read-only views."""
        public, after = self.public.view(), self.after.view()
        public.flags.writeable = after.flags.writeable = False
        return {
            mode: [NodeRecord(node=n + 1, observation=int(z), action=int(self.actions[k, n]),
                              public=public[k, n], after=after[k, n],
                              estimate=float(self.estimates[k, n]))
                   for n, z in enumerate(self.observations)]
            for k, mode in enumerate(self.modes)
        }


@dataclass
class MetricsTable:
    """Monte Carlo aggregates, plus the full per-run estimate/action arrays."""

    num_nodes: int
    modes: tuple[str, ...]
    true_states: np.ndarray                 # (runs,)
    estimates: dict[str, np.ndarray]        # mode -> (runs, N)
    actions: dict[str, np.ndarray]          # mode -> (runs, N) int
    constraint: dict[int, list[int]]
    mean_estimate: dict[str, np.ndarray] = field(init=False)
    mse: dict[str, np.ndarray] = field(init=False)
    action_hist: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        self.mean_estimate = {m: e.mean(axis=0) for m, e in self.estimates.items()}
        self.mse = {
            m: ((e - self.true_states[:, None]) ** 2).mean(axis=0)
            for m, e in self.estimates.items()
        }
        # one bincount per mode: node n's count of action a sits at n * amax + a - 1
        self.action_hist = {}
        for m, acts in self.actions.items():
            amax = int(acts.max())
            index = np.arange(self.num_nodes) * amax + acts - 1
            self.action_hist[m] = np.bincount(
                index.ravel(), minlength=self.num_nodes * amax).reshape(self.num_nodes, amax)


def node_weights(graph: CommGraph) -> list[np.ndarray]:
    """Incest-removal weight vector for every node (index n-1 -> w_n)."""
    w = graphmod.weight_matrix(graph)
    return [w[:n, n] for n in range(graph.size)]


def run_once(config: ScenarioConfig, graph: CommGraph, rng: np.random.Generator,
             weights: np.ndarray | None = None,
             constraint: dict[int, list[int]] | None = None) -> RunTrace:
    """Execute one protocol run over the graph, all configured modes in lockstep."""
    model = config.model
    modes = config.modes

    if weights is None:
        weights = graphmod.weight_matrix(graph)
    if "removal" in modes:
        if constraint is None:
            constraint = graphmod.violations(weights, graph.adjacency)
        if constraint and not config.force:
            raise ConstraintViolationError(constraint)

    if config.true_state == "random":
        x = int(rng.choice(model.num_states, p=model.prior)) + 1
    else:
        x = int(config.true_state)

    adjacency = graph.adjacency
    history = graph.closure - np.eye(graph.size, dtype=np.int8)
    # mode -> (F, S[n] is the after-evidence, own increment is the observation)
    table = {
        "naive": (adjacency, True, False),
        "removal": (weights * adjacency if config.force else weights, True, False),
        "idealized": (history, False, False),
        "obs_oracle": (history, False, True),
    }
    fs, stores_after, own_is_obs = zip(*(table[mode] for mode in modes))
    # coeffs[k, n-1, i] weighs node i+1's stored row in node n's fusion under mode k;
    # after-evidence travels over edges, benchmarks read all history
    coeffs = np.stack([f.T for f in fs]).astype(np.float64)
    received = np.stack([(adjacency if after else history).T != 0 for after in stores_after])
    # a node that needs evidence it never receives: fuse raises AvailabilityError there
    unavailable = ((coeffs != 0) & ~received).any(axis=(0, 2)).tolist()
    stores_after = np.array(stores_after)[:, None]  # one row per mode, broadcast over states
    oracle = [k for k, is_obs in enumerate(own_is_obs) if is_obs]

    shape = (len(modes), graph.size, model.num_states)
    observations = learning.sample_observation(x, model, rng, size=graph.size)
    obs_loglik = np.log(np.maximum(model.likelihood.T[observations - 1],
                                   learning.LIKELIHOOD_FLOOR))
    log_prior = model.log_prior
    stored, public, after = np.zeros(shape), np.empty(shape), np.empty(shape)
    actions = np.empty(shape[:2], dtype=np.int64)

    # one row per mode throughout
    for n, z in enumerate(observations.tolist(), start=1):
        evidence = learning.fuse(coeffs[:, n - 1, : n - 1], stored[:, : n - 1],
                                 received[:, n - 1, : n - 1] if unavailable[n - 1] else None,
                                 node=n)
        pub = learning.normalize_log(log_prior + evidence)
        acts = learning.action_table(pub, model)  # action each observation induces
        a = acts[:, z - 1]
        # every row's action is induced by the drawn z, so no row (obs_oracle's,
        # replaced below, included) can raise ZeroProbabilityActionError
        own = learning.action_likelihood(pub, a, model, config.floor_zero_likelihood,
                                         table=acts)
        if oracle:
            own[oracle] = obs_loglik[n - 1]
        after_evidence = evidence + own
        stored[:, n - 1] = np.where(stores_after, after_evidence, own)
        public[:, n - 1] = pub
        after[:, n - 1] = learning.normalize_log(log_prior + after_evidence)
        actions[:, n - 1] = a

    return RunTrace(true_state=x, graph_digest=graph.digest(), modes=modes,
                    observations=observations, actions=actions, public=public, after=after,
                    estimates=learning.estimate_state(after, config.estimate_rule))


def build_graph(config: ScenarioConfig) -> CommGraph:
    """Graph realization for a scenario; deterministic in the scenario seed."""
    return graphmod.generate_topology(config.topology, graphmod.topology_rng(config.seed))


def monte_carlo(config: ScenarioConfig, graph: CommGraph | None = None) -> MetricsTable:
    """Replicated runs with per-run seeds derived from the master seed.

    Seed scheme: SeedSequence(seed) spawns runs+1 children; child 0 drives
    topology generation (build_graph), child r (1-based) drives run r.  Any
    single run is therefore reproducible standalone.
    """
    if graph is None:
        graph = build_graph(config)
    weights = graphmod.weight_matrix(graph)
    constraint = graphmod.violations(weights, graph.adjacency)
    if "removal" in config.modes and constraint and not config.force:
        raise ConstraintViolationError(constraint)

    shape = (len(config.modes), config.runs, graph.size)
    estimates = np.zeros(shape)
    actions = np.zeros(shape, dtype=np.int64)
    true_states = np.zeros(config.runs)

    run_seeds = np.random.SeedSequence(config.seed).spawn(config.runs + 1)[1:]
    for r, run_seed in enumerate(run_seeds):
        trace = run_once(config, graph, np.random.default_rng(run_seed),
                         weights=weights, constraint=constraint)
        true_states[r] = trace.true_state
        estimates[:, r] = trace.estimates
        actions[:, r] = trace.actions

    return MetricsTable(num_nodes=graph.size, modes=config.modes, true_states=true_states,
                        estimates=dict(zip(config.modes, estimates)),
                        actions=dict(zip(config.modes, actions)), constraint=constraint)
