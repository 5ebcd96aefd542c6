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
log-likelihood.  At each node the public beliefs of all modes are stacked,
and one action table (learning.action_table) gives both the agent's action
and the observations its nu sums over.  All modes share one observation
sequence, so their traces differ by aggregation alone.  SeedSequence(seed)
child 0 draws the graph (graph.topology_rng, as `gen-graph --seed`); child r
drives run r.
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


@dataclass
class NodeRecord:
    node: int
    observation: int
    action: int
    public: np.ndarray
    after: np.ndarray
    estimate: float


@dataclass
class RunTrace:
    true_state: int
    graph_digest: str
    observations: list[int]
    records: dict[str, list[NodeRecord]]


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
        self.action_hist = {}
        for m, acts in self.actions.items():
            amax = int(acts.max())
            hist = np.zeros((self.num_nodes, amax), dtype=np.int64)
            for n in range(self.num_nodes):
                counts = np.bincount(acts[:, n], minlength=amax + 1)
                hist[n] = counts[1:]
            self.action_hist[m] = hist


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
    # node n reads row n-1; after-evidence travels over edges, benchmarks read all history
    coeffs = [np.ascontiguousarray(f.T, dtype=np.float64) for f in fs]
    received = [(adjacency if after else history).T != 0 for after in stores_after]
    stores_after = np.array(stores_after)[:, None]  # one row per mode, broadcast over states
    stored = np.zeros((len(modes), graph.size, model.num_states))

    log_prior = model.log_prior
    observations: list[int] = []
    records: dict[str, list[NodeRecord]] = {m: [] for m in modes}

    for n in range(1, graph.size + 1):
        z = learning.sample_observation(x, model, rng)
        observations.append(z)
        obs_loglik = np.log(np.maximum(model.likelihood[:, z - 1], learning.LIKELIHOOD_FLOOR))

        # one row per mode from here on
        evidence = np.stack([
            learning.fuse(coeffs[k][n - 1, : n - 1], stored[k, : n - 1],
                          received[k][n - 1, : n - 1], node=n)
            for k in range(len(modes))])
        pub = learning.normalize_log(log_prior + evidence)
        acts = learning.action_table(pub, model)  # action each observation induces
        a = acts[:, z - 1].tolist()
        own = np.stack([
            obs_loglik if own_is_obs[k] else learning.action_likelihood(
                pub[k], a[k], model, config.floor_zero_likelihood, table=acts[k])
            for k in range(len(modes))])
        after_evidence = evidence + own
        stored[:, n - 1] = np.where(stores_after, after_evidence, own)
        after = learning.normalize_log(log_prior + after_evidence)

        for k, mode in enumerate(modes):
            records[mode].append(NodeRecord(
                node=n, observation=z, action=a[k], public=pub[k], after=after[k],
                estimate=learning.estimate_state(after[k], config.estimate_rule),
            ))

    return RunTrace(true_state=x, graph_digest=graph.digest(),
                    observations=observations, records=records)


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

    n = graph.size
    estimates = {m: np.zeros((config.runs, n)) for m in config.modes}
    actions = {m: np.zeros((config.runs, n), dtype=np.int64) for m in config.modes}
    true_states = np.zeros(config.runs)

    run_seeds = np.random.SeedSequence(config.seed).spawn(config.runs + 1)[1:]
    for r, run_seed in enumerate(run_seeds):
        trace = run_once(config, graph, np.random.default_rng(run_seed),
                         weights=weights, constraint=constraint)
        true_states[r] = trace.true_state
        for m in config.modes:
            estimates[m][r] = [rec.estimate for rec in trace.records[m]]
            actions[m][r] = [rec.action for rec in trace.records[m]]

    return MetricsTable(num_nodes=n, modes=config.modes, true_states=true_states,
                        estimates=estimates, actions=actions, constraint=constraint)
