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

Every likelihood is floored before its log (learning.floored_log), so every
stored row is finite, as removal's negative weights need.

Nodes update block by block (graph.independent_blocks).  A block is a
maximal run of consecutive nodes none of which hears another, such as the
agents of one epoch, so all of it updates in one step over arrays stacked
by mode and node (M modes x L nodes x X states): one learning.fuse call
sums the rows stored before the block with the block's rows of the
coefficient table, for every mode at once; one normalize_log gives the
public beliefs, their action tables (learning.action_table) both the
agents' actions and the observations each nu sums over, and
action_likelihood the nu of every (mode, node), the last two through the
study's RowMemo (below).  A block stores its after log-posteriors
(log prior + after-evidence), and one normalize_log per run turns them into
after-beliefs once every block is done.  The one call in a block step that
can raise is fuse's check: naive evidence counts paths, which pass the
float64 range on large dense graphs, and fuse raises ValueError for the
lowest node whose fused evidence is not finite, before the block writes
anything.  The block step is bit for bit the per-node, per-mode loop, and
raises what that loop raises.  What a run reads that
depends on the graph and the config alone (the M x N x N coefficient table,
the blocks, the graph digest) is built once per study by run_tables, and
monte_carlo passes it to every run_once.
Runs that herd hear the same actions, so the tables also hold a StepTrie,
which reuses block steps across the runs of the study.  It is one dict,
steps[(state, key)] = (next state, log_after, rows, following): state is an
int that numbers a path of keys (0 before block 1), key is the block's
joint actions (M x L, as bytes, plus its observations when obs_oracle is
among the modes, whose own increment is the observation's), log_after and
rows are the block's after log-posteriors and stored rows, and following
is the next block's (evidence, pub, acts), None after the last block;
block 1's is held once, as first.  A block reads only the rows stored
before it, and those follow from the key path alone (by induction over the
blocks: a block's stored rows follow from its pub and its key), so a cached
array is the one the block step would compute, bit for bit.  A block step
does one lookup: on a hit it copies the cached rows; on a miss it steps the
block as above, fuses the next block's inputs and keeps the step while the
trie's arrays and keys fit TRIE_BUDGET (512 KiB per study, a constant);
a step that does not fit leaves the run outside the trie.
Herding also brings the same public beliefs back (on paper_chain41, 1915
of 12 300 rows are distinct), and they induce few action tables (28-57 per
bundled study), so the tables also hold a RowMemo.  It maps a public-belief
row's exact bytes to a table id, keeps each distinct action-table row once,
and holds one likelihood slot per (table id, action), filled the first time
that pair is needed.  A block step looks its rows up, calls action_table
once on the rows the memo misses, gathers the block's tables from the ids,
and calls action_likelihood once for the slots still empty.  Both kernels
work row by row, so a row computed in a smaller batch has the same bits,
and a hit returns bits made by the same calls: the memo changes no output.
It keeps an entry while its keys and arrays fit TRIE_BUDGET (its own 512
KiB, beside the trie's); an entry that does not fit is computed and not
kept.  The trie keeps no table ids, so a block whose inputs the trie
served looks its rows' ids up again before it computes the likelihoods.
run_tables binds its tables to the config and graph it was given, and
run_once refuses tables built for other objects; monte_carlo builds them
per study, so no state outlives the call.  A run draws its N observations in one call, and all
modes share them, so their traces differ by aggregation alone.
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


# Bytes of array data (and keys) each of one study's caches, its StepTrie and
# its RowMemo, may hold.  Without a bound, a study whose runs rarely share a
# prefix fills megabytes it never reads.
TRIE_BUDGET = 512 * 1024


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class RowMemo:
    """Action tables and action likelihoods of the runs of one study, by public-belief row.

    ids maps a public-belief row's bytes to its table id, and tables[id] is
    the row's action table; each distinct table is kept once, and
    table_ids maps its bytes to its id.  slot[id, a-1] is the row of nus
    that holds the log-likelihood of action a under table id, -1 until the
    pair is first needed.  An entry that does not fit the budget is computed
    and not kept, so a row may have no table id: its id is -1, and its table
    and likelihoods are computed each time.  slot has one row more than
    tables, and its last row, the one id -1 reads, stays -1.
    Every array is read-only and replaced when it grows; nbytes, the keys
    and arrays, never exceeds TRIE_BUDGET.
    """

    def __init__(self, model: StateModel):
        self.model = model
        self.ids: dict[bytes, int] = {}
        self.table_ids: dict[bytes, int] = {}
        self.tables = _frozen(np.empty((0, model.num_obs), dtype=np.int64))
        self.slot = _frozen(np.full((1, model.num_actions), -1))
        self.nus = _frozen(np.empty((0, model.num_states)))
        self.nbytes = self.slot.nbytes

    def _keep(self, size: int) -> bool:
        """Count size more bytes if they fit the budget."""
        if self.nbytes + size > TRIE_BUDGET:
            return False
        self.nbytes += size
        return True

    def table(self, pub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(acts, ids) for beliefs pub (..., X): acts (..., Z) is
        learning.action_table(pub, model), computed by one call on the rows
        the memo misses, and ids (...) the rows' table ids."""
        rows = pub.reshape(-1, pub.shape[-1])
        data, width = rows.tobytes(), rows.shape[1] * rows.itemsize
        keys = [data[i:i + width] for i in range(0, len(data), width)]
        found = [self.ids.get(key, -1) for key in keys]
        miss = [i for i, tid in enumerate(found) if tid < 0]
        if miss:
            computed = learning.action_table(rows.take(miss, axis=0), self.model)
            computed_bytes, size = computed.tobytes(), computed.shape[1] * computed.itemsize
            new = []
            for j, i in enumerate(miss):
                key = computed_bytes[j * size:(j + 1) * size]
                tid = self.table_ids.get(key)
                if tid is None and self._keep(2 * size + self.slot[0].nbytes):
                    tid = self.table_ids[key] = len(self.table_ids)
                    new.append(j)
                if tid is not None:
                    found[i] = tid
                    if keys[i] not in self.ids and self._keep(width):
                        self.ids[keys[i]] = tid
            if new:
                self.tables = _frozen(np.concatenate([self.tables, computed[new]]))
                empty = np.full((len(new), self.slot.shape[1]), -1)
                self.slot = _frozen(np.concatenate([self.slot, empty]))
        ids = np.array(found).reshape(pub.shape[:-1])
        if -1 not in found:
            return self.tables.take(ids, axis=0), ids
        # rows whose table did not fit read the computed one
        acts = np.empty(ids.shape + computed.shape[1:], dtype=computed.dtype)
        acts[ids >= 0] = self.tables[ids[ids >= 0]]
        acts.reshape(len(keys), -1)[miss] = computed
        return acts, ids

    def nu(self, pub: np.ndarray, a: np.ndarray, acts: np.ndarray,
           ids: np.ndarray) -> np.ndarray:
        """learning.action_likelihood(pub, a, model, table=acts), where
        (acts, ids) = table(pub): kept slots are read, and one call computes
        the rest, one row for each empty slot and each row without a table id."""
        slots = self.slot[ids, a - 1]
        if -1 not in slots.ravel().tolist():
            return self.nus.take(slots, axis=0)
        x, num_actions = pub.shape[-1], self.slot.shape[1]
        ids, a, slots = ids.reshape(-1), a.reshape(-1), slots.reshape(-1)
        need = np.flatnonzero(slots < 0)
        # one code per slot, and one of its own for each row without a table id
        codes = np.where(ids[need] >= 0, ids[need] * num_actions + a[need] - 1, -1 - need)
        codes, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        rows = need[first]
        computed = learning.action_likelihood(pub.reshape(-1, x)[rows], a[rows], self.model,
                                              table=acts.reshape(-1, acts.shape[-1])[rows])
        own = np.empty((ids.size, x))
        own[slots >= 0] = self.nus[slots[slots >= 0]]
        own[need] = computed[inverse]
        fresh = [j for j, code in enumerate(codes.tolist())
                 if code >= 0 and self._keep(computed[j].nbytes)]
        if fresh:
            slot = self.slot.copy()
            slot[ids[rows[fresh]], a[rows[fresh]] - 1] = np.arange(len(self.nus),
                                                                   len(self.nus) + len(fresh))
            self.slot = _frozen(slot)
            self.nus = _frozen(np.concatenate([self.nus, computed[fresh]]))
        return own.reshape(pub.shape)


class StepTrie:
    """Block steps of the runs of one study, keyed by the action histories they heard.

    steps[(state, key)] = (next state, log_after, rows, following), and
    first is block 1's (evidence, pub, acts), kept with the first step.
    Every array in it is read-only; nbytes, its arrays and keys, never
    exceeds TRIE_BUDGET.  hits counts the block steps served from it.
    """

    def __init__(self):
        self.steps: dict[tuple[int, bytes], tuple] = {}
        self.first: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.nbytes = 0
        self.hits = 0


@dataclass(frozen=True)
class RunTables:
    """What every run of a study shares; it depends on the graph and the config alone.

    Row k of each per-mode table is config.modes[k].  coeffs[k, n-1, i]
    weighs node i+1's stored row in node n's fusion, and is zero unless that
    row reaches node n (over an edge for after-evidence, over a path for an
    own increment).  config and graph are the objects the tables were built
    from, trie caches the block steps of the study's runs, and memo their
    action tables and action likelihoods by public-belief row: keyed by the
    row's exact bytes, within TRIE_BUDGET, and bit for bit the direct calls,
    as both kernels work row by row.
    """

    coeffs: np.ndarray              # (M, N, N) float
    stores_after: np.ndarray        # (M, 1, 1) bool: S[n] is the after-evidence, not the increment
    oracle: list[int]               # rows whose own increment is the observation's
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
    # mode -> (F, S[n] is the after-evidence, own increment is the observation)
    table = {
        "naive": (adjacency, True, False),
        "idealized": (history, False, False),
        "obs_oracle": (history, False, True),
    }
    if removal:
        table["removal"] = (graph.weights, True, False)
    fs, stores_after, own_is_obs = zip(*(table[mode] for mode in config.modes))
    # after-evidence arrives over edges, own increments over the whole history
    coeffs = np.stack([(f * (adjacency if after else history)).T
                       for f, after in zip(fs, stores_after)], dtype=np.float64)
    return RunTables(
        coeffs=coeffs, stores_after=np.array(stores_after)[:, None, None],
        oracle=[k for k, is_obs in enumerate(own_is_obs) if is_obs],
        blocks=graphmod.independent_blocks(graph), digest=graph.digest(),
        constraint=constraint, config=config, graph=graph, memo=RowMemo(config.model))


def run_once(config: ScenarioConfig, graph: CommGraph, rng: np.random.Generator,
             tables: RunTables | None = None) -> RunTrace:
    """Execute one protocol run over the graph, all configured modes in lockstep.

    tables are run_tables(config, graph), built here unless given; tables
    built from another config or graph object raise ValueError.
    """
    model = config.model
    if tables is None:
        tables = run_tables(config, graph)
    elif tables.config is not config or tables.graph is not graph:
        raise ValueError("run tables were built for another config or graph")

    if config.true_state == "random":
        x = int(rng.choice(model.num_states, p=model.prior)) + 1
    else:
        x = int(config.true_state)

    shape = (len(config.modes), graph.size, model.num_states)
    observations = learning.sample_observation(x, model, rng, size=graph.size)
    obs_index = observations - 1
    obs_loglik = learning.floored_log(model.likelihood_t[obs_index])
    log_prior = model.log_prior
    stored, public, after = np.zeros(shape), np.empty(shape), np.empty(shape)
    actions = np.empty(shape[:2], dtype=np.int64)
    node_index = np.arange(graph.size)
    blocks, trie, memo = tables.blocks, tables.trie, tables.memo

    def inputs(b):
        """Block b's (evidence, pub, acts) from the rows stored before it, and
        the table ids of pub; (None, None) past the last."""
        if b == len(blocks):
            return None, None
        lo, hi = blocks[b]
        # the one call in a block step that can raise, before the block writes
        # anything: with every row finite, no later call can
        evidence = learning.fuse(tables.coeffs[:, lo:hi, :lo], stored[:, :lo], node=lo + 1)
        pub = learning.normalize_log(log_prior + evidence)
        acts, ids = memo.table(pub)  # action each z induces
        return (evidence, pub, acts), ids

    following, ids = (trie.first, None) if trie.first else inputs(0)
    state, first = 0, following
    for b, (lo, hi) in enumerate(blocks):
        # nodes lo+1..hi, none of which hears another, in one row per (mode, node)
        evidence, pub, acts = following
        a = acts[:, node_index[:hi - lo], obs_index[lo:hi]]
        key = a.tobytes()
        if tables.oracle:
            key += observations[lo:hi].tobytes()
        step = trie.steps.get((state, key))  # never a hit once state is None
        if step is not None:
            state, log_after, rows, following = step
            ids = None  # the trie keeps no table ids
            stored[:, lo:hi] = rows
            trie.hits += 1
        else:
            # every row's action is induced by the drawn z, so no row (obs_oracle's,
            # replaced below, included) can raise ZeroProbabilityActionError
            if ids is None:
                ids = memo.table(pub)[1]
            own = memo.nu(pub, a, acts, ids)
            if tables.oracle:
                own[tables.oracle] = obs_loglik[lo:hi]
            after_evidence = evidence + own
            log_after = log_prior + after_evidence
            rows = np.where(tables.stores_after, after_evidence, own)
            stored[:, lo:hi] = rows
            following, ids = inputs(b + 1)
            if state is not None:
                # the first step kept also keeps block 1's inputs
                kept = (log_after, rows, *(following or ()), *(() if trie.first else first))
                size = len(key) + sum(arr.nbytes for arr in kept)
                if trie.nbytes + size > TRIE_BUDGET:
                    state = None  # the run leaves the trie
                else:
                    for arr in kept:
                        arr.flags.writeable = False
                    trie.nbytes += size
                    trie.first = first
                    trie.steps[state, key] = (len(trie.steps) + 1, log_after, rows, following)
                    state = len(trie.steps)
        after[:, lo:hi] = log_after  # normalised once the run is done
        public[:, lo:hi] = pub
        actions[:, lo:hi] = a

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
