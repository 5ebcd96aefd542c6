"""Protocol runs over a communication graph, in up to four modes.

A mode is one row of a table.  Node n fuses the rows S[i] stored by earlier
nodes, evidence_n = sum_i F[i, n] * S[i], then adds its own increment:

  mode        F      S[n] stores     own increment
  naive       A      after-evidence  nu   unit weights: data incest occurs
  removal     W      after-evidence  nu   optimal incest-removal weights
  idealized   T - I  own increment   nu   full-action-history benchmark
  obs_oracle  T - I  own increment   obs  raw-observation posterior (for scale)

A is the adjacency, T the closure, W = I - T^-1 (CommGraph.weights, solved
once per graph on first use; raises WeightOverflowError beyond int64), nu
the action log-likelihood.  Every F is masked, entry by entry, by the rows
its node receives: after-evidence arrives over edges (A), own increments
over the whole history (T - I), so no node reads a row it does not
receive.  Removal's W * A is W where the constraint holds; `force` only
decides whether a violation raises.  Only removal reads W: a study without
it runs on a graph whose W leaves int64, and its constraint report is None
(not checked).

naive, removal and idealized are action-driven: a node's increment is the
likelihood of its action, so what it stores depends on the actions heard
before it.  obs_oracle hears raw observations and no action, so its row is
one closed form per run, outside the block step below: one learning.fuse
of every node's observation log-likelihood with its (1, N, N)
coefficients (T - I)^T, built once per study by run_tables.  Its public
beliefs give its actions through the study's RowMemo (below), and run_once
puts its rows in at obs_oracle's index in the modes, one np.concatenate
per trace array.

Every likelihood is floored before its log (learning.floored_log), so every
stored row is finite, as removal's negative weights need.

Nodes update block by block (graph.independent_blocks).  A block is a
maximal run of consecutive nodes with no edge between them, such as the
agents of one epoch: none of them hears another, so all of it updates in
one step over arrays stacked by action-driven mode and node (M' modes x
L nodes x X states): one
learning.fuse call (one np.einsum) sums the rows stored before the block
with the block's coefficient slice, for every mode at once; one
normalize_log gives the public beliefs, their action tables
(learning.action_table, whose argmin is learning._cheapest_action, the one
action-choice function) both the agents' actions and the observations
each nu sums over, and the tables' likelihoods
(learning.action_likelihoods) the nu of every (mode, node), the last two
through the study's RowMemo (below).  A block writes into the run's
arrays only the rows it stores, which later blocks fuse; its public
beliefs, after-evidence and actions are kept in lists, which the run
joins with one np.concatenate each once every block is done.  Then one
addition of the log prior and one normalize_log per run give the
after-beliefs.  The one call in a block step that can raise is fuse's
check: naive evidence counts paths, which pass the float64 range on
large dense graphs, and fuse raises ValueError for the lowest node
whose fused evidence is not finite, before the block writes anything.
The block step is bit for bit the per-node, per-mode loop, and raises
what that loop raises.  What a run reads that depends on the graph and
the config alone (the blocks, their coefficient slices, the graph
digest) is built once per study by run_tables, and monte_carlo passes it
to every run_once.  Block (lo, hi)
fuses the rows of nodes 1..lo only, so its slice is the (M', hi - lo, lo)
corner of the M' x N x N coefficient table that it reads; the slices are
C-contiguous views of one float64 buffer, which holds no other entry of
that table; run_tables fills it with one masked gather per mode.
A block's inputs (evidence, pub and the table ids of pub) depend only on
the actions heard before it, and runs that herd hear the same actions, so
the tables also hold a StepTrie, which reuses block inputs across the runs
of the study.  It holds steps[(state, key)] = next state and
inputs[state]: a state is an int that numbers a path of keys (-1 the
empty path), a key is a block's joint actions (M' x L, as bytes; empty
for block 1, which hears nothing), and inputs are those of the block the
path leads into.  A block reads only the rows stored before it, and those
follow from the key path alone (by induction over the blocks: a block's
stored rows follow from its inputs and its key), so held inputs are the
ones the block would compute, bit for bit.
Every block step takes one path: one lookup, then fuse, normalize_log and
the memo's table ids only for inputs the trie does not hold, which it
keeps while its arrays and keys fit TRIE_BUDGET (512 KiB per study, a
constant); inputs that do not fit leave the run outside the trie.
Herding also brings the same public beliefs back (on paper_chain41, 1915
of 12 300 rows are distinct), and they induce few action tables (28-57 per
bundled study), so the tables also hold a RowMemo.  It maps a public-belief
row's exact bytes to a table id (a call takes the keys of all its rows
from one void view of them), and keeps each distinct action-table row
once, with the log-likelihood of every action under it.  A block step
calls action_table once on the distinct rows the memo misses, and every
row has a table id, so a block's actions and their nu are two gathers by
id.  Both kernels work row by row, so a row computed in a smaller batch
has the same bits, and the memo changes no output.  The memo keeps every
row it is given; once its keys and arrays exceed TRIE_BUDGET, the next
run starts by clearing it, and the trie with it, whose held inputs hold
memo ids.  So the memo holds at most TRIE_BUDGET plus the rows one run
adds.  run_tables binds its tables to the config and graph it was given,
and run_once refuses tables built for other objects; monte_carlo builds
them per study, so no state outlives the call.  A run draws its true
state and then its N observations, the latter in one call, each by
searchsorted on a CDF its StateModel keeps: Generator.choice(p=...)'s own
algorithm, so the draws and the generator state are choice's.  All modes
share the observations, so their traces differ by aggregation alone.
RunTrace keeps the run as (M x N) and (M x N x X) arrays; its `records` is
a per-node view of them, built on demand.
Child r of SeedSequence(seed) (graph.seed_rng) drives run r; child 0 draws
the graph (graph.topology_rng, as `gen-graph --seed`).
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


# Bytes of keys and array data that each of one study's caches, its StepTrie
# and its RowMemo, may hold (the memo, at the start of a run).  Without a
# bound, a study whose runs rarely share a prefix fills megabytes it never
# reads.
TRIE_BUDGET = 512 * 1024


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _row_keys(rows: np.ndarray, key: np.dtype) -> list[bytes]:
    """The exact bytes of each row of a 2-D array, from one view of it as
    key, a void dtype as wide as a row."""
    return np.ascontiguousarray(rows).view(key).ravel().tolist()


class RowMemo:
    """Action tables and action likelihoods of the runs of one study, by public-belief row.

    ids maps a public-belief row's bytes to its table id, and tables[id] is
    the row's action table; each distinct table is kept once, and
    table_index maps its bytes to its id.  A call takes the keys of all its
    rows from one view of them as row_key (or table_key), a void dtype as
    wide as one row, whose tolist() gives one bytes object per row.
    nus[id, a-1] is floored_log(learning.action_likelihoods(tables[id]))[a-1],
    the log-likelihood of action a, kept with the table.  Every row it is given
    is kept, so every row has a table id; run_once clears the memo at the
    start of a run once nbytes, its keys and arrays, exceeds TRIE_BUDGET.
    Every array is read-only and replaced when it grows.
    """

    def __init__(self, model: StateModel):
        self.model = model
        # a row's key is its bytes: X float64 for a belief, Z int64 for a table
        self.row_key = np.dtype((np.void, 8 * model.num_states))
        self.table_key = np.dtype((np.void, 8 * model.num_obs))
        self.clear()

    def clear(self):
        """Drop every row and table."""
        self.ids: dict[bytes, int] = {}
        self.table_index: dict[bytes, int] = {}
        self.tables = _frozen(np.empty((0, self.model.num_obs), dtype=np.int64))
        self.nus = _frozen(np.empty((0, self.model.num_actions, self.model.num_states)))
        self.nbytes = 0

    def table_ids(self, pub: np.ndarray) -> np.ndarray:
        """Table ids (...) of beliefs pub (..., X): tables[ids] is
        learning.action_table(pub, model), computed by one call on the
        distinct rows the memo misses.  Rows it adds replace tables and
        nus, so compute ids before reading either: memo.tables[
        memo.table_ids(pub)] reads the old array and may raise IndexError."""
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
            self.nbytes += len(missed) * self.row_key.itemsize
            if new:
                self.tables = _frozen(np.concatenate([self.tables, computed[new]]))
                nus = learning.floored_log(learning.action_likelihoods(computed[new], self.model))
                self.nus = _frozen(np.concatenate([self.nus, nus]))
                self.nbytes += len(new) * 2 * self.table_key.itemsize + nus.nbytes
            found = list(map(self.ids.get, keys))
        ids = np.array(found, dtype=np.int64)
        ids.shape = pub.shape[:-1]  # in place: ids keeps owning its data
        return ids


class StepTrie:
    """Block inputs of the runs of one study, keyed by the action histories they heard.

    A state numbers a path of keys, -1 the empty one; steps[(state, key)]
    is the state the path extends to, and inputs[state] the (evidence,
    pub, ids) of the block that path leads into, ids the table ids of pub
    in the study's RowMemo.  Every array in it is read-only; nbytes, its
    keys and arrays, never exceeds TRIE_BUDGET.  hits counts the blocks
    whose inputs it served.
    """

    def __init__(self):
        self.hits = 0
        self.clear()

    def clear(self):
        """Drop every step and input."""
        self.steps: dict[tuple[int, bytes], int] = {}
        self.inputs: list[tuple[np.ndarray, ...]] = []
        self.nbytes = 0

    def add(self, state: int, key: bytes, inputs: tuple[np.ndarray, ...]) -> int | None:
        """The state key extends state to, holding inputs; None if they do not fit."""
        size = len(key) + sum(arr.nbytes for arr in inputs)
        if self.nbytes + size > TRIE_BUDGET:
            return None
        self.nbytes += size
        self.inputs.append(tuple(map(_frozen, inputs)))
        self.steps[state, key] = len(self.inputs) - 1
        return len(self.inputs) - 1


@dataclass(frozen=True)
class RunTables:
    """What every run of a study shares; it depends on the graph and the config alone.

    Row k of coeffs and stores_after is the k-th action-driven mode of
    config.modes, every mode but obs_oracle, in their order.  coeffs[b]
    belongs to block blocks[b] = (lo, hi): coeffs[b][k, l, i] weighs node
    i+1's stored row in node lo+l+1's fusion, and is zero unless that row
    reaches that node (over an edge for after-evidence, over a path for an
    own increment).  Each is a read-only, C-contiguous view of one buffer,
    and together they hold every coefficient the block step reads, as a
    block reads only the rows stored before it.  oracle_coeffs[0][n-1, i]
    weighs node i+1's observation log-likelihood in node n's obs_oracle
    evidence, when obs_oracle is configured (read-only; else None).
    config and graph are the objects the tables were built from, trie holds
    the block inputs of the study's runs by the actions they heard, and
    memo their action tables and action likelihoods by public-belief row,
    keyed by the row's exact bytes.  Both are bounded by TRIE_BUDGET (the
    memo at the start of a run, when run_once clears both once the memo
    exceeds it), and bit for bit the direct calls, as both kernels work row
    by row.
    """

    coeffs: list[np.ndarray]        # per block (lo, hi): (M', hi - lo, lo) float, C order
    stores_after: np.ndarray        # (M', 1, 1) bool: S[n] is the after-evidence, not the increment
    oracle_coeffs: np.ndarray | None  # (1, N, N) float (T - I)^T, C order; None without obs_oracle
    blocks: list[tuple[int, int]]   # graph.independent_blocks
    digest: str
    constraint: dict[int, list[int]] | None  # None: W leaves int64, not checked
    config: ScenarioConfig = field(compare=False, repr=False)
    graph: CommGraph = field(compare=False, repr=False)
    memo: RowMemo = field(compare=False, repr=False)
    trie: StepTrie = field(default_factory=StepTrie, compare=False, repr=False)


def run_tables(config: ScenarioConfig, graph: CommGraph) -> RunTables:
    """Build the tables every run over the graph reads.

    Each mode's coefficients are its weights masked by the rows its node
    receives, entry by entry: A for after-evidence, T - I for own
    increments.  Removal's are W * A, which is W where the constraint holds.
    The action-driven modes' are gathered into one float64 buffer, one
    masked gather and one masked write per mode, and each block gets its
    read-only slice of it.
    obs_oracle's, (T - I)^T, are one (1, N, N) float64 array of their own,
    built only when it is configured.
    Only removal reads W: with removal among the modes, a W beyond int64
    raises WeightOverflowError, and a graph that violates the constraint
    raises ConstraintViolationError unless config.force.  Without removal,
    a W beyond int64 leaves the constraint unchecked (None).
    """
    removal = "removal" in config.modes
    adjacency = graph.adjacency
    try:
        constraint = graphmod.violations(graph.weights, adjacency)
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
    blocks, m = graphmod.independent_blocks(graph), len(driven)
    bounds = np.array(blocks, dtype=np.int64).reshape(-1, 2)
    los, lengths = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    sizes = lengths * los  # one mode's coefficients in each block
    # node n of block (lo, hi) reads the rows of nodes 1..lo: in C order, one
    # mode's entries of every block, block after block
    reads = (np.arange(graph.size) < los[:, None]).repeat(lengths, axis=0)
    # the mode of each buffer entry: block by block, each mode's entries in turn
    parts = np.arange(m, dtype=np.int8)[None].repeat(len(blocks), axis=0).ravel()
    owner = parts.repeat(sizes.repeat(m))
    buffer = np.empty(owner.size)
    for k, (f, after) in enumerate(driven):
        # after-evidence arrives over edges, own increments over the whole history;
        # row n-1 of the transpose is what node n fuses
        buffer[owner == k] = (f * (adjacency if after else history)).T[reads]
    _frozen(buffer)
    ends = np.cumsum(m * sizes).tolist()
    coeffs = [buffer[end - m * (hi - lo) * lo:end].reshape(m, hi - lo, lo)
              for (lo, hi), end in zip(blocks, ends)]
    oracle_coeffs = None
    if "obs_oracle" in config.modes:
        oracle_coeffs = _frozen(np.ascontiguousarray(history.T[None], dtype=np.float64))
    return RunTables(
        coeffs=coeffs,
        stores_after=np.array([after for _, after in driven], dtype=bool)[:, None, None],
        oracle_coeffs=oracle_coeffs, blocks=blocks, digest=graph.digest(),
        constraint=constraint, config=config, graph=graph, memo=RowMemo(config.model))


def run_once(config: ScenarioConfig, graph: CommGraph, rng: np.random.Generator,
             tables: RunTables | None = None) -> RunTrace:
    """Execute one protocol run over the graph: the action-driven modes in
    lockstep, block by block, then obs_oracle's closed form if configured.

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

    # the action-driven modes' rows; obs_oracle's is put in once the blocks are done
    shape = (len(tables.stores_after), graph.size, model.num_states)
    observations = learning.sample_observation(x, model, rng, size=graph.size)
    obs_index = observations - 1
    log_prior = model.log_prior
    stored = np.zeros(shape)
    # each block's pub, after-evidence and actions, joined once the blocks are
    # done; the empty first parts give a graph without blocks (N = 0) its shapes
    pubs, after_evidences = [stored[:, :0]], [stored[:, :0]]
    acts = [np.empty((shape[0], 0), dtype=np.int64)]
    blocks, trie, memo = tables.blocks, tables.trie, tables.memo
    if memo.nbytes > TRIE_BUDGET:
        # the trie holds table ids of the memo, so both start over
        memo.clear()
        trie.clear()

    state, key = -1, b""  # the empty history; block 1 hears no actions
    for (lo, hi), coeffs in zip(blocks, tables.coeffs):
        # nodes lo+1..hi, none of which hears another, in one row per (mode, node);
        # state is None once the run has left the trie, and never looks up a hit
        held = trie.steps.get((state, key))
        if held is not None:
            state = held
            evidence, pub, ids = trie.inputs[state]
            trie.hits += 1
        else:
            # the one call in a block step that can raise, before the block writes
            # anything: with every row finite, no later call can
            evidence = learning.fuse(coeffs, stored[:, :lo], node=lo + 1)
            pub = learning.normalize_log(log_prior + evidence)
            ids = memo.table_ids(pub)
            if state is not None:
                state = trie.add(state, key, (evidence, pub, ids))
        # every row's action is induced by the drawn z, so no row's nu is that of
        # an action ZeroProbabilityActionError refuses, one no z induces
        a = memo.tables[ids, obs_index[lo:hi]]
        own = memo.nus[ids, a - 1]
        after_evidence = evidence + own
        stored[:, lo:hi] = np.where(tables.stores_after, after_evidence, own)
        pubs.append(pub)
        after_evidences.append(after_evidence)
        acts.append(a)
        key = a.tobytes()

    public = np.concatenate(pubs, axis=1)
    after = log_prior + np.concatenate(after_evidences, axis=1)  # normalised below
    actions = np.concatenate(acts, axis=1)
    if tables.oracle_coeffs is not None:
        # obs_oracle's row, from the observations alone: every node's own
        # increment is its observation's, and it fuses those of its history.
        # This fuse cannot raise: a node sums at most N floored logs, each
        # >= log(LIKELIHOOD_FLOOR) > -691.
        own = learning.floored_log(model.likelihood_t[obs_index])
        evidence = learning.fuse(tables.oracle_coeffs, own[None], node=1)
        pub = learning.normalize_log(log_prior + evidence)
        ids = memo.table_ids(pub)  # before memo.tables is read: table_ids replaces it
        k = config.modes.index("obs_oracle")
        actions = np.concatenate((actions[:k], memo.tables[ids, obs_index], actions[k:]))
        public = np.concatenate((public[:k], pub, public[k:]))
        after = np.concatenate((after[:k], log_prior + (evidence + own), after[k:]))
    after = learning.normalize_log(after)
    return RunTrace(true_state=x, graph_digest=tables.digest, modes=config.modes,
                    observations=observations, actions=actions, public=public, after=after,
                    estimates=learning.estimate_state(after, config.estimate_rule))


def build_graph(config: ScenarioConfig) -> CommGraph:
    """Graph realization for a scenario; deterministic in the scenario seed."""
    return graphmod.generate_topology(config.topology, graphmod.topology_rng(config.seed))


def monte_carlo(config: ScenarioConfig, graph: CommGraph | None = None) -> MetricsTable:
    """Replicated runs with per-run seeds derived from the master seed.

    Run r (1-based) draws from graph.seed_rng(seed, r); child 0 drives
    topology generation (build_graph).  Any single run is therefore
    reproducible standalone.  The run tables, W included, are built once for
    the whole study.
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
