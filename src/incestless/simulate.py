"""Protocol runs over a communication graph, in up to four modes.

A mode is one row of a table.  Node n fuses the rows S[i] stored by earlier
nodes, evidence_n = sum_i F[i, n] * S[i], then adds its own increment:

  mode        F      S[n] stores     own increment
  naive       A      after-evidence  nu   unit weights: data incest occurs
  removal     W * A  after-evidence  nu   optimal incest-removal weights
  idealized   T - I  own increment   nu   full-action-history benchmark
  obs_oracle  T - I  own increment   obs  raw-observation posterior (for scale)

A is the adjacency, T the closure, W = I - T^-1 (graph.CommGraph.weights),
W * A their entrywise product, which is W where the availability
constraint holds (graph.constraint_report), and nu the action
log-likelihood (learning.action_likelihoods).  naive, removal and
idealized are action-driven: what a node stores depends on the actions
heard before it.  Each mechanism is described where it lives:

  run_tables   each mode's masked coefficients, and which modes read W
  RunTables    the coefficient table's layout and the views a block fuses
  run_once     the block step, and obs_oracle's closed form
  StudyCache   the block inputs and action tables a study's runs share
  monte_carlo  the seeds of a study's runs
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import graph as graphmod
from . import learning
from .errors import (ConfigError, ConstraintViolationError, WeightOverflowError, is_integer,
                     require_integer)
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

    def __post_init__(self):
        if require_integer(self.runs, "runs") < 1:
            raise ConfigError("runs must be >= 1")
        if require_integer(self.seed, "seed") < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if (not isinstance(self.modes, (list, tuple))
                or not all(isinstance(m, str) for m in self.modes)):
            raise ConfigError(f"modes must be a list of mode names, got {self.modes!r}")
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ConfigError("modes must name at least one mode")
        unknown = set(self.modes) - set(MODES)
        if unknown:
            raise ConfigError(f"unknown modes: {sorted(unknown)}")
        if len(set(self.modes)) < len(self.modes):
            raise ConfigError(f"modes must be unique, got {list(self.modes)}")
        if is_integer(self.true_state):
            if not 1 <= self.true_state <= self.model.num_states:
                raise ConfigError(f"true_state {self.true_state} out of range "
                                  f"1..{self.model.num_states}")
        elif not isinstance(self.true_state, str) or self.true_state != "random":
            raise ConfigError(f"true_state must be 'random' or an integer, "
                              f"got {self.true_state!r}")
        if self.estimate_rule not in ("map", "mean"):
            raise ConfigError(f"unknown estimate rule {self.estimate_rule!r}")
        if not isinstance(self.force, (bool, np.bool_)):
            raise ConfigError(f"force must be true or false, got {self.force!r}")


@dataclass(eq=False)
class RunTrace:
    """One run in every mode: row k of each per-mode array is modes[k], and
    entry n-1 along the node axis is node n."""

    true_state: int
    modes: tuple[str, ...]
    observations: np.ndarray  # (N,) int, shared by every mode
    actions: np.ndarray       # (M, N) int
    public: np.ndarray        # (M, N, X) public belief, before the node acts
    after: np.ndarray         # (M, N, X) belief after the node's own increment
    estimates: np.ndarray     # (M, N)


@dataclass(eq=False)
class MetricsTable:
    """Monte Carlo aggregates, plus the full per-run estimate/action arrays."""

    num_nodes: int
    modes: tuple[str, ...]
    true_states: np.ndarray                 # (runs,)
    estimates: dict[str, np.ndarray]        # mode -> (runs, N)
    actions: dict[str, np.ndarray]          # mode -> (runs, N) int
    constraint: dict[int, list[int]] | None  # None: W leaves int64, not checked
    mean_estimate: dict[str, np.ndarray] = field(init=False)
    mse: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        self.mean_estimate = {m: e.mean(axis=0) for m, e in self.estimates.items()}
        self.mse = {
            m: ((e - self.true_states[:, None]) ** 2).mean(axis=0)
            for m, e in self.estimates.items()
        }


def node_weights(graph: CommGraph) -> list[np.ndarray]:
    """Incest-removal weight vector for every node (index n-1 -> w_n)."""
    return [graph.weights[:n, n] for n in range(graph.size)]


# Bytes of keys and array data that each half of a StudyCache may hold: its
# block inputs at all times, its rows at the start of a run.  Without a bound,
# a study whose runs rarely share a prefix fills megabytes it never uses.
CACHE_BUDGET = 512 * 1024


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _row_keys(rows: np.ndarray, key: np.dtype) -> list[bytes]:
    """The exact bytes of each row of a 2-D array, from one view of it as
    key, a void dtype as wide as a row."""
    return np.ascontiguousarray(rows).view(key).ravel().tolist()


class StudyCache:
    """Block inputs and action tables the runs of one study share.

    Steps: a block's inputs, (evidence, pub, ids) with ids the table ids of
    its public beliefs pub, depend only on the actions heard before it, and
    runs that herd into a cascade keep hearing the same actions.  A state
    numbers a path of keys, -1 the empty one; a key is a block's joint
    actions (action-driven modes x nodes, as bytes; empty for block 1,
    which hears nothing); steps[(state, key)] is the state the path extends
    to, and inputs[state] the inputs of the block that path leads into.
    The rows a block fuses follow from the key path alone, so held inputs
    are the ones the block would compute, bit for bit.
    Rows: ids maps a public-belief row's bytes to its table id, and
    tables[id] is the row's action table; each distinct table is kept once,
    and table_index maps its bytes to its id.  A call takes the keys of all
    its rows from one view of them as row_key (or table_key), a void dtype
    as wide as one row.  nus[id, a-1] is
    floored_log(learning.action_likelihoods(tables[id]))[a-1], the
    log-likelihood of action a, kept with the table.  Both kernels work row
    by row, so a row computed in a smaller batch has the same bits.
    step_bytes and row_bytes count each half's keys and arrays, and
    CACHE_BUDGET bounds both: add refuses inputs past it, which leaves the
    run outside the steps, and start_run clears the whole cache, whose held
    inputs hold table ids, once the rows have passed it.  So the rows hold
    at most CACHE_BUDGET plus the rows one run adds, and every row has a
    table id.  Every array is read-only; tables and nus are replaced when
    they grow.

    Measured at commit 717e674 on the bundled studies (100 runs each): on
    paper_chain41, 1915 of 12 300 public-belief rows are distinct and 2449
    of 4100 blocks read held inputs; a study meets 28-57 distinct action
    tables; in their own modes or in all four, the rows peak at 404 KiB
    (413 920 B, paper_chain41), so the cache never clears; and in their
    own modes action_table computes 4081 rows, one per distinct belief, in
    1873 calls, of which 1859 have a live state range of 2-10 of the 20
    states.  On dense_scale's four seed-1 studies it computes 4578 rows in
    308 calls: 4491 rows hold 2-4 states, and 288 calls have a live range
    of 2-4 states.

    Measured at commit 02278de on the benchmark studies: the steps fill
    CACHE_BUDGET in every one (paper_chain41 with 520 steps, 524 136 B;
    paper_complete and paper_star 86 steps each, paper_random4 104, and
    dense_scale's studies at seeds 1000-1003 52 each), yet outside
    paper_chain41 they serve little more than block 1 of each run:
    paper_complete, paper_star and paper_random4 get 113, 112 and 121
    hits in 300, 400 and 400 blocks of 100 runs, and dense_scale 3 hits in
    80 blocks, against 2449 hits in 4100 blocks on paper_chain41.  At 1000
    runs the rows pass CACHE_BUDGET and the cache clears on paper_chain41
    (6 times, at up to 529 120 B) and on paper_complete (once, at
    525 280 B); on paper_star and paper_random4 they peak at 371 360 and
    423 360 B and never clear.
    """

    def __init__(self, model: StateModel):
        self.model = model
        # a row's key is its bytes: X float64 for a belief, Z int64 for a table
        self.row_key = np.dtype((np.void, 8 * model.num_states))
        self.table_key = np.dtype((np.void, 8 * model.num_obs))
        self.clear()

    def clear(self):
        """Drop every step, input, row and table."""
        self.steps: dict[tuple[int, bytes], int] = {}
        self.inputs: list[tuple[np.ndarray, ...]] = []
        self.ids: dict[bytes, int] = {}
        self.table_index: dict[bytes, int] = {}
        self.tables = _frozen(np.empty((0, self.model.num_obs), dtype=np.int64))
        self.nus = _frozen(np.empty((0, self.model.num_actions, self.model.num_states)))
        self.step_bytes = self.row_bytes = 0

    def start_run(self):
        """Clear the cache if its rows have passed CACHE_BUDGET."""
        if self.row_bytes > CACHE_BUDGET:
            self.clear()

    def add(self, state: int, key: bytes, inputs: tuple[np.ndarray, ...]) -> int | None:
        """The state key extends state to, holding inputs; None if they do not fit."""
        size = len(key) + sum(arr.nbytes for arr in inputs)
        if self.step_bytes + size > CACHE_BUDGET:
            return None
        self.step_bytes += size
        self.inputs.append(tuple(map(_frozen, inputs)))
        self.steps[state, key] = len(self.inputs) - 1
        return len(self.inputs) - 1

    def table_ids(self, pub: np.ndarray) -> np.ndarray:
        """Table ids (...) of beliefs pub (..., X): tables[ids] is
        learning.action_table(pub, model), computed by one call on the
        distinct rows the cache misses.  Rows it adds replace tables and
        nus, so compute ids before reading either: cache.tables[
        cache.table_ids(pub)] indexes the old array and may raise IndexError."""
        rows = pub.reshape(-1, pub.shape[-1])
        keys = _row_keys(rows, self.row_key)
        found = list(map(self.ids.get, keys))
        if None in found:
            missed = {}  # each distinct missed row's key -> its first row
            for i, (key, known) in enumerate(zip(keys, found)):
                if known is None:
                    missed.setdefault(key, i)
            computed = learning.action_table(rows.take(list(missed.values()), axis=0), self.model)
            new = []
            for j, (key, table) in enumerate(zip(missed, _row_keys(computed, self.table_key))):
                if table not in self.table_index:
                    self.table_index[table] = len(self.table_index)
                    new.append(j)
                self.ids[key] = self.table_index[table]
            self.row_bytes += len(missed) * self.row_key.itemsize
            if new:
                self.tables = _frozen(np.concatenate([self.tables, computed[new]]))
                nus = learning.floored_log(learning.action_likelihoods(computed[new], self.model))
                self.nus = _frozen(np.concatenate([self.nus, nus]))
                self.row_bytes += len(new) * 2 * self.table_key.itemsize + nus.nbytes
            found = list(map(self.ids.get, keys))
        ids = np.array(found, dtype=np.int64)
        ids.shape = pub.shape[:-1]  # in place: ids keeps owning its data
        return ids


@dataclass(frozen=True, eq=False)
class RunTables:
    """What every run of a study shares; it depends on the graph and the config alone.

    Row k of stores_after is the k-th action-driven mode of config.modes,
    every mode but obs_oracle, in their order, and so are the first M' rows
    of coeffs, the read-only, C-contiguous (M, N, N) coefficient table;
    its last row is obs_oracle's, when that mode is configured.
    coeffs[k, n-1, i] weighs node i+1's stored row (obs_oracle: its
    observation log-likelihood) in node n's fusion.  Block (lo, hi) of
    graph.blocks fuses only the rows stored before it, so it reads the view
    coeffs[:M', lo:hi, :lo], in which i keeps stride 1; obs_oracle's closed
    form fuses coeffs[M':].
    config and graph are the objects the tables were built from, and cache
    the StudyCache of the study's runs.
    """

    coeffs: np.ndarray              # (M, N, N) float, C order; obs_oracle's row last
    stores_after: np.ndarray        # (M', 1, 1) bool: S[n] is the after-evidence, not the increment
    constraint: dict[int, list[int]] | None  # None: W leaves int64, not checked
    config: ScenarioConfig = field(repr=False)
    graph: CommGraph = field(repr=False)
    cache: StudyCache = field(repr=False)


def run_tables(config: ScenarioConfig, graph: CommGraph) -> RunTables:
    """Build the tables every run over the graph uses.

    Each mode's coefficients are its weights masked by the rows its node
    receives, entry by entry: after-evidence arrives over edges (A), own
    increments over the whole history (T - I), so no node fuses a row it
    does not receive, in any mode.  Removal's are W * A, which is W where
    the constraint holds.  Each mode's row of the float64 table is one
    integer multiply cast on output, so every zero is +0.0.
    Only removal uses W: with removal among the modes, a W beyond int64
    raises WeightOverflowError, and a graph that violates the constraint
    raises ConstraintViolationError unless config.force, which decides
    only that.  Without removal, a W beyond int64 leaves the constraint
    unchecked (None).
    """
    removal = "removal" in config.modes
    adjacency = graph.adjacency
    try:
        constraint = graphmod.constraint_report(graph)
    except WeightOverflowError:
        if removal:
            raise
        constraint = None
    if removal and constraint and not config.force:
        raise ConstraintViolationError(constraint)

    history = graph.closure - np.eye(graph.size, dtype=np.int8)
    # action-driven mode -> (F, S[n] is the after-evidence)
    table = {"naive": (adjacency, True), "idealized": (history, False)}
    if removal:
        table["removal"] = (graph.weights, True)
    driven = [table[mode] for mode in config.modes if mode != "obs_oracle"]
    # obs_oracle fuses own increments over the history, as idealized does
    rows = driven + ([(history, False)] if "obs_oracle" in config.modes else [])
    coeffs = np.empty((len(rows), graph.size, graph.size))
    for k, (f, after) in enumerate(rows):
        # row n-1 of the transpose is what node n fuses
        np.multiply(f.T, (adjacency if after else history).T, out=coeffs[k])
    return RunTables(
        coeffs=_frozen(coeffs),
        stores_after=np.array([after for _, after in driven], dtype=bool)[:, None, None],
        constraint=constraint, config=config, graph=graph, cache=StudyCache(config.model))


def run_once(config: ScenarioConfig, graph: CommGraph, rng: np.random.Generator,
             tables: RunTables | None = None) -> RunTrace:
    """Execute one protocol run over the graph: the action-driven modes in
    lockstep, block by block, then obs_oracle's closed form if configured.

    The run draws its true state, then its N observations in one call
    (learning.sample_observation), which every mode shares.  A block
    (CommGraph.blocks) is a maximal run of consecutive nodes with no edge
    between them, so none of its nodes hears another, and it updates in
    one step over arrays stacked by action-driven mode and node:
    one learning.fuse of the rows stored before it, one normalize_log for
    the public beliefs, and, through tables.cache, their action tables (the
    agents' actions, read at the drawn observations) and those tables' nu.
    The one call that can raise is fuse's check, before the block writes
    anything, so the step raises what the per-node, per-mode loop raises,
    and gives its bits.  The run's arrays are allocated once, in the row
    layout of RunTables.coeffs: each block writes its public beliefs,
    after-evidence and actions into its columns of rows :M'.  obs_oracle
    hears no action: its row M' is one fuse of the observations' floored
    log-likelihoods with (T - I)^T, and one learning.action_table of its
    public beliefs, gathered at the observations, for its actions; one
    gather then puts that row at its place in config.modes.  The log prior
    is added to every after-evidence row once, and one normalize_log gives
    the after-beliefs.

    tables are run_tables(config, graph), built here unless given; tables
    built from another config or graph object raise ValueError.
    """
    model = config.model
    if tables is None:
        tables = run_tables(config, graph)
    elif tables.config is not config or tables.graph is not graph:
        raise ValueError("run tables were built for another config or graph")

    if config.true_state == "random":
        # Generator.choice(X, p=prior)'s draw, from the CDF the model keeps
        x = int(model.prior_cdf.searchsorted(rng.random(), side="right")) + 1
    else:
        x = int(config.true_state)

    m = len(tables.stores_after)
    observations = learning.sample_observation(x, model, rng, size=graph.size)
    obs_index = observations - 1
    log_prior = model.log_prior
    shape = (len(config.modes), graph.size, model.num_states)
    public, after = np.empty(shape), np.empty(shape)  # after: the after-evidence, at first
    actions = np.empty(shape[:2], dtype=np.int64)
    stored = np.zeros((m,) + shape[1:])
    cache = tables.cache
    cache.start_run()

    state, key = -1, b""  # the empty history; block 1 hears no actions
    for lo, hi in graph.blocks:
        # nodes lo+1..hi, none of which hears another, in one row per (mode, node);
        # state is None once the run has left the steps, and never looks up a hit
        held = cache.steps.get((state, key))
        if held is not None:
            state = held
            evidence, pub, ids = cache.inputs[state]
        else:
            # the one call in a block step that can raise, before the block writes
            # anything: with every row finite, no later call can
            evidence = learning.fuse(tables.coeffs[:m, lo:hi, :lo], stored[:, :lo], node=lo + 1)
            pub = learning.normalize_log(log_prior + evidence)
            ids = cache.table_ids(pub)
            if state is not None:
                state = cache.add(state, key, (evidence, pub, ids))
        # every row's action is induced by the drawn z, so no row's nu is that of
        # an action ZeroProbabilityActionError refuses, one no z induces
        a = cache.tables[ids, obs_index[lo:hi]]
        own = cache.nus[ids, a - 1]
        after_evidence = np.add(evidence, own, out=after[:m, lo:hi])
        stored[:, lo:hi] = np.where(tables.stores_after, after_evidence, own)
        public[:m, lo:hi] = pub
        actions[:m, lo:hi] = a
        key = a.tobytes()

    if "obs_oracle" in config.modes:
        # this fuse cannot raise: a node sums at most N floored logs, each
        # >= log(LIKELIHOOD_FLOOR) > -691
        own = learning.floored_log(model.likelihood_t[obs_index])
        evidence = learning.fuse(tables.coeffs[m:], own[None], node=1)
        public[m:] = learning.normalize_log(log_prior + evidence)
        # no later run reads these rows, so the cache does not keep them
        table = learning.action_table(public[m:], model)
        actions[m:] = table[:, np.arange(graph.size), obs_index]
        after[m:] = evidence + own
        order = np.insert(np.arange(m), config.modes.index("obs_oracle"), m)
        public, after, actions = public[order], after[order], actions[order]
    after += log_prior
    after = learning.normalize_log(after)
    return RunTrace(true_state=x, modes=config.modes, observations=observations,
                    actions=actions, public=public, after=after,
                    estimates=learning.estimate_state(after, config.estimate_rule))


def build_graph(config: ScenarioConfig) -> CommGraph:
    """Graph realization for a scenario; deterministic in the scenario seed."""
    return graphmod.generate_topology(config.topology, graphmod.topology_rng(config.seed))


def monte_carlo(config: ScenarioConfig, graph: CommGraph | None = None) -> MetricsTable:
    """Replicated runs with per-run seeds derived from the master seed.

    Run r (1-based) draws from graph.seed_rng(seed, r); child 0 drives
    topology generation (build_graph).  Any single run is therefore
    reproducible standalone.  The run tables, W included, are built once for
    the whole study, and dropped when it returns.
    """
    if graph is None:
        graph = build_graph(config)
    tables = run_tables(config, graph)

    shape = (len(config.modes), config.runs, graph.size)
    estimates = np.zeros(shape)
    actions = np.zeros(shape, dtype=np.int64)
    true_states = np.zeros(config.runs)

    for r in range(config.runs):
        trace = run_once(config, graph, graphmod.seed_rng(config.seed, r + 1), tables=tables)
        true_states[r] = trace.true_state
        estimates[:, r] = trace.estimates
        actions[:, r] = trace.actions

    return MetricsTable(num_nodes=graph.size, modes=config.modes, true_states=true_states,
                        estimates=dict(zip(config.modes, estimates)),
                        actions=dict(zip(config.modes, actions)), constraint=tables.constraint)
