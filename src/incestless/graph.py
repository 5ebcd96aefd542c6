"""Time-dependent DAG of information flow between (agent, epoch) nodes.

Nodes are numbered 1..N with n = s + S*(k-1) for agent s and epoch k, so
node order is causal order.  The adjacency matrix A has A[i-1, j-1] = 1
iff the action of node i reaches node j (an edge i -> j); causality makes
A strictly upper triangular.  The transitive closure T has T[i-1, j-1] = 1
iff i == j or a directed path i -> j exists.  Nodes that update together
form blocks (CommGraph.blocks), each a maximal run of consecutive nodes
with no edge between them.

All public node / agent / epoch indices are 1-based; the underlying numpy
arrays are 0-based.
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import errno
import itertools
import os
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import (ConfigError, DagViolationError, GraphFormatError, IncestlessError,
                     WeightOverflowError, is_integer, require_integer)


def _edges(adjacency: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(N, src, dst): the edges of a square 0/1 matrix as 0-based index
    arrays, in row-major order, read from its flat nonzero indices.

    Raises GraphFormatError for non-square or non-binary input.
    """
    a = np.asarray(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphFormatError(f"adjacency must be square, got shape {a.shape}")
    flat = np.flatnonzero(a != 0)
    if not (a.reshape(-1)[flat] == 1).all():
        raise GraphFormatError("adjacency entries must be 0 or 1")
    src, dst = np.divmod(flat, a.shape[0])
    return a.shape[0], src, dst


def _back_edges(src: np.ndarray, dst: np.ndarray) -> list[tuple[int, int]]:
    """The (i, j) entries (1-based, row-major) on or below the diagonal."""
    back = src >= dst
    return list(zip((src[back] + 1).tolist(), (dst[back] + 1).tolist()))


# rows per block of the weight solves, which solve a block's own rows one run at a time
_BLOCK = 64


def transitive_closure(adjacency: np.ndarray) -> np.ndarray:
    """Reachability matrix of a strictly upper-triangular adjacency.

    Row i of T, the reach-to set of node i+1, is held as a Python int used
    as a bit set (bit j set iff node i+1 reaches node j+1).  The rows are
    filled last node first: every out-neighbour of a node comes after it,
    so its row is done, and a row is 1 << i ORed with the row of each
    out-neighbour.  That is one big-int OR per edge, O(E * N/64) word
    operations in all (Purdom 1970, Warren 1975).  The rows' little-endian
    bytes, unpacked bit by bit, give T as int8.
    """
    size, src, dst = _edges(adjacency)
    violations = _back_edges(src, dst)
    if violations:
        raise DagViolationError(violations)
    out = dst.tolist()
    # out[bounds[i]:bounds[i + 1]]: the out-neighbours of node i+1
    bounds = np.searchsorted(src, np.arange(size + 1)).tolist()
    rows = [0] * size
    for i in range(size - 1, -1, -1):
        row = 1 << i
        for j in out[bounds[i]:bounds[i + 1]]:
            row |= rows[j]
        rows[i] = row
    width = (size + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(packed.reshape(size, width), axis=1, count=size,
                         bitorder="little").view(np.int8)


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Immutable communication graph: its adjacency and closure, and cached blocks and weights.

    Built from the adjacency alone, which is validated as given and kept as
    a read-only int8 copy; the closure is built at construction, and only
    blocks and weights are derived, on first use.  The (agent, epoch)
    layout is TopologySpec's.  A graph equals only itself; equal edge sets
    have equal digests.
    """

    adjacency: np.ndarray
    closure: np.ndarray = field(init=False)

    def __post_init__(self):
        given = np.asarray(self.adjacency)
        # the array as given is validated; the graph keeps its own int8 copy,
        # so freezing it leaves the caller's array writeable, and no write
        # through it reaches the graph
        t = transitive_closure(given)
        a = given.astype(np.int8)
        for arr in (a, t):
            arr.flags.writeable = False
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "closure", t)

    @property
    def size(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """The nodes 1..N cut into blocks lo+1..hi, as (lo, hi), each a
        maximal run of consecutive nodes with no edge between them; derived
        from the in-edges on first use, then read by every user of the
        graph's blocks.

        Node m starts a block when its latest in-neighbour lies in the
        current block.  No node of a block reaches another: node order is
        causal, so a path between two nodes of a run visits only nodes of
        the run, and would end with an edge inside it.  Every node of a
        block hears only nodes before the block, so the whole block can
        update at once, and the weight solves solve its rows by one product.
        The blocks are contiguous in node order, not topological levels, so
        a node's block precedes every later node's.  A block may be the
        agents of one epoch; on chain41 each is one node.
        """
        size, src, dst = _edges(self.adjacency)
        latest = np.zeros(size, dtype=np.int64)  # node m+1's latest in-neighbour, 0 if none
        np.maximum.at(latest, dst, src + 1)
        starts = [0] if size else []
        for m, last in enumerate(latest.tolist()):
            if last > starts[-1]:
                starts.append(m)
        return tuple(zip(starts, starts[1:] + [size]))

    @cached_property
    def weights(self) -> np.ndarray:
        """W = I - T^-1, read-only, solved by weight_matrix on first use and
        then read by every user of the graph's weights.  A solve that raises
        WeightOverflowError is not kept, so every access raises again."""
        w = weight_matrix(self)
        w.flags.writeable = False
        return w

    def digest(self) -> str:
        """Short stable identifier of the edge set, for trace provenance."""
        import hashlib

        return hashlib.sha256(self.adjacency.tobytes()).hexdigest()[:16]


def weight_matrix(graph: CommGraph) -> np.ndarray:
    """W = I - T^-1, as int64; read it as graph.weights, which solves it once.

    W[i, n] is minus the Moebius function of the reachability order, and
    column n holds w_n, the solution of T_{n-1} w_n = t_n.  W is solved in
    float64 (`_float_weights`), which proves column by column that the
    solve was exact: every proven column is used as it is.  The columns it
    cannot prove go through the exact solve modulo 2^64 in float64 limbs
    (`_int64_weights`), which resumes from the float solve's rows at and
    past `start`, exact in every column, and raises WeightOverflowError for
    a weight beyond int64.  Both give the integers of one back substitution
    over all of W, and the same error: a proven column has every |entry|
    below 2^53, so it never wraps, and the limb solve checks the other
    columns in the same order, rows bottom-up and columns ascending, so the
    first weight it finds beyond int64 is the first one of the whole matrix.
    """
    w, unproven, start = _float_weights(graph)
    # the limb solve runs before the cast, so its planes and the int64 W never coexist
    if unproven.size:
        solved = _int64_weights(graph, unproven, w[start:, unproven].astype(np.int64))
    w = w.astype(np.int64)
    if unproven.size:
        w[:, unproven] = solved
    return w


def _float_weights(graph: CommGraph) -> tuple[np.ndarray, np.ndarray, int]:
    """(W, unproven, start): W in float64, the columns of W that float64
    cannot prove exact, and the first row from which every column is exact.

    Row j (0-based) of W is w_j = t_j - t_j @ W[j+1:], where t_j =
    closure[j, j+1:] is what node j+1 reaches past itself: it is both that
    node's row of each T_{n-1} and its entry t_n(j+1) of each later column.
    A column of W reads only itself, so any subset of columns can be solved
    alone.  W starts at T - I, each row at its t_j, and is solved bottom-up
    in blocks of _BLOCK rows: the rows below a block enter by one GEMM per
    chunk of _BLOCK columns, which stops at the chunk's last row (the
    entries below it are zero), then the block's own rows are solved one
    run at a time, bottom-up, by one product each (`_block_runs`).  No node
    of a run reaches another, so T is the identity on the run, each of its
    rows reads only the rows below the run, and its entries at or left of
    the run's last column stay 0: the product covers only the columns past
    the run.

    Each entry is w[j, c] = t_jc - (sum of a subset of the w[k, c] solved
    before its run), as T is 0/1, and every partial sum on the way is a
    signed subset sum of the same terms.  So while 1 plus a column's sum
    of |w| (its sum of |T^-1|, whose diagonal is 1) stays below 2^53, all
    of them are integers that float64 holds exactly: the first wrong entry
    in solve order would have read only exact entries of its column, and
    so could not be wrong.  The column sums are themselves
    sums of integers, and one below 2^53 is exact, whatever the order of
    its additions.

    The proof holds column by column.  A column whose sum reaches 2^53 in
    a block is unproven: its rows in that block and in every block above
    it are zeroed once solved, which keeps it finite and changes no other
    column.  `start` is the first row of the block solved before the first
    one in which a column failed (0 if none did): up to that block every
    column was proven, so rows >= start are exact in every column.
    """
    closure, rows, blocks = graph.closure, graph.size, graph.blocks
    w = closure.astype(np.float64)  # T - I: each row starts at its t_j
    np.fill_diagonal(w, 0)
    sums = np.ones(rows)  # 1 + the sum of |w| solved so far, per column
    unproven = np.zeros(rows, dtype=bool)
    start = 0
    for r0 in range(((rows - 1) // _BLOCK) * _BLOCK, -1, -_BLOCK):
        r1 = min(r0 + _BLOCK, rows)
        t = closure[r0:r1, r0:].astype(np.float64)  # the block's rows, from column r0
        # columns of nodes before the block are zero on its rows and below, and
        # w[k, c] = 0 for k >= c, so each chunk of columns past the block reads
        # the rows below the block only up to its last column
        block = w[r0:r1, r0:]
        for c0 in range(r1, rows, _BLOCK):
            c1 = min(c0 + _BLOCK, rows)
            block[:, c0 - r0:c1 - r0] -= t[:, r1 - r0:c1 - r0] @ w[r1:c1, c0:c1]
        # the bottom run has no block rows below it
        for a, b in _block_runs(blocks, r0, r1)[1:]:
            block[a:b, b:] -= t[a:b, b:r1 - r0] @ block[b:, b:]
        sums[r0:] += np.abs(block).sum(axis=0)
        failed = sums[r0:] >= 2.0**53
        if failed.any():
            if not unproven.any():
                start = r1
            unproven[r0:] = failed
            block[:, failed] = 0
    return w, np.flatnonzero(unproven), start


def _int64_weights(graph: CommGraph, columns: np.ndarray | None = None,
                   known: np.ndarray | None = None) -> np.ndarray:
    """W[:, columns] (every column by default) by the recurrence and the
    blocks of _float_weights, exactly modulo 2^64, resumed below `known`.

    `known` holds rows start.. of W[:, columns], exact and in int64 (none by
    default, so start = N; start is a block boundary), and rows start-1 .. 0
    are solved.  The rows are held only as two float64 planes, their low 32
    bits (unsigned) and their high 32 bits (signed), recombined into int64
    on return.  A 0/1 row times a limb plane sums to less than N * 2^32 in
    magnitude, below 2^53 for N < 2^21, so each limb sum, and every partial
    sum of it in any order, is an exact integer in float64, and so is the
    sum of the GEMM part and the in-block part.  The limb sums recombine to
    t_j @ W mod 2^64, so each row equals, bit for bit, an int64 back
    substitution that wraps.

    The same limb sums, recombined in float64 instead, give t_j @ W with a
    relative error below 2^-51, so far less than 2^63 off.  Where the true
    weight lies in int64 the two rows agree to that error; where it does
    not, the int64 row wrapped by a multiple of 2^64.  A difference beyond
    2^63 therefore marks a weight beyond int64, and WeightOverflowError
    names the first one, rows bottom-up and columns ascending.  Each run is
    checked as soon as it is solved: no row of it reads another, and every
    row below it is exact, so each of its rows is checked on exact input,
    and its last row with a wrap holds the first weight beyond int64.
    """
    closure, rows, blocks = graph.closure, graph.size, graph.blocks
    cols = np.arange(rows) if columns is None else np.asarray(columns)
    start = rows if known is None else rows - known.shape[0]
    limbs = np.zeros((2, rows, cols.size))  # low 32 bits, high 32 bits
    if known is not None:
        limbs[:, start:] = known & 0xFFFFFFFF, known >> 32
    t_cols = closure[:, cols]
    # past[j]: the first of the columns after node j+1, the ones row j solves
    past = np.searchsorted(cols, np.arange(rows), side="right").tolist()
    for r0 in range(((start - 1) // _BLOCK) * _BLOCK, -1, -_BLOCK):
        r1 = min(r0 + _BLOCK, start)
        t = closure[r0:r1, r0:].astype(np.float64)  # the block's rows, from column r0
        k0 = past[r0]
        sums = np.zeros((2, r1 - r0, cols.size - k0))
        for q0 in range(k0, cols.size, _BLOCK):
            q1 = min(q0 + _BLOCK, cols.size)
            stop = max(int(cols[q1 - 1]), r1)
            sums[:, :, q0 - k0:q1 - k0] = t[:, r1 - r0:stop - r0] @ limbs[:, r1:stop, q0:q1]
        for a, b in _block_runs(blocks, r0, r1):
            j0, j1, k = r0 + a, r0 + b, past[r0 + b - 1]
            run = sums[:, a:b, k - k0:]
            run += t[a:b, b:r1 - r0] @ limbs[:, j1:r1, k:]
            exact = t_cols[j0:j1, k:] - ((run[1].astype(np.int64) << 32) + run[0].astype(np.int64))
            approx = t_cols[j0:j1, k:] - (run[1] * 2.0**32 + run[0])
            wrapped = np.abs(approx - exact) > 2.0**63
            if wrapped.any():
                i = np.flatnonzero(wrapped.any(axis=1))[-1]
                c = k + np.flatnonzero(wrapped[i])[0]
                raise WeightOverflowError(node=int(cols[c]) + 1, index=j0 + int(i) + 1)
            limbs[:, j0:j1, k:] = exact & 0xFFFFFFFF, exact >> 32
    # W's one int64 plane; the low limbs are cast in the ufunc's buffer, not in a plane
    w = np.left_shift(limbs[1], 32, dtype=np.int64, casting="unsafe")
    return np.add(w, limbs[0], out=w, dtype=np.int64, casting="unsafe")


def _block_runs(blocks: tuple[tuple[int, int], ...], r0: int, r1: int) -> list[tuple[int, int]]:
    """The runs of the rows r0..r1-1: the graph's blocks (CommGraph.blocks)
    cut at their edges, as block-local (a, b) for rows r0+a..r0+b-1, bottom
    run first."""
    first = bisect.bisect_right(blocks, r0, key=itemgetter(0)) - 1  # the block holding r0
    last = bisect.bisect_left(blocks, r1, key=itemgetter(0))
    return [(max(lo, r0) - r0, min(hi, r1) - r0) for lo, hi in reversed(blocks[first:last])]


def compute_weights(graph: CommGraph, n: int) -> np.ndarray:
    """Optimal incest-removal weights w_n (length n-1, integer valued): a
    writable copy of column n of graph.weights.

    Raises WeightOverflowError if any weight of the graph, not only one of
    w_n, lies beyond int64.
    """
    if not (is_integer(n) and 1 <= n <= graph.size):
        raise ValueError(f"node {n} out of range 1..{graph.size}")
    return graph.weights[: n - 1, n - 1].copy()


def constraint_report(graph: CommGraph) -> dict[int, list[int]]:
    """Map node -> violating indices, for every node with a violation of the
    availability constraint: a nonzero weight w_n(j) needs the edge j -> n.

    The nonzero columns of (W != 0) & (A == 0), each listing its rows in
    ascending order; raises WeightOverflowError where graph.weights does.
    """
    bad = (graph.weights != 0) & (graph.adjacency == 0)
    size = bad.shape[0]
    # flat indices of the transpose are sorted by column, then row, so
    # column c's end is the count of them below (c + 1) * size
    flat = np.flatnonzero(bad.T)
    ends = np.searchsorted(flat, np.arange(1, size + 1) * size).tolist()
    # in place: two freed temporaries of this size left graph_sweep's peak
    # resident set about 3 MB higher
    flat %= size
    flat += 1
    rows = flat.tolist()
    return {c + 1: rows[lo:hi] for c, (lo, hi) in enumerate(zip([0] + ends, ends)) if hi > lo}


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
        if self.path is not None and not isinstance(self.path, str):
            raise ConfigError(f"path must be a string, got {self.path!r}")
        if self.kind == "explicit" and not self.path:
            raise ConfigError("explicit topology requires a graph file path")
        require_integer(self.agents, "agents")
        require_integer(self.epochs, "epochs")
        if self.agents < 1 or self.epochs < 1:
            raise ConfigError("agents and epochs must be positive")
        if not isinstance(self.delays, (list, tuple)):
            raise ConfigError(f"delays must be a list, got {self.delays!r}")
        object.__setattr__(self, "delays", tuple(self.delays))
        if self.kind == "star_delay" and self.agents < 2:
            raise ConfigError("star topology needs at least 2 agents")
        if self.kind in ("complete_delay", "star_delay") and not self.delays:
            raise ConfigError("delay set must be non-empty")
        if not all(is_integer(d) and d >= 1 for d in self.delays):
            raise ConfigError(f"delays must be positive integers, got {self.delays!r}")


def generate_topology(spec: TopologySpec, rng: np.random.Generator) -> CommGraph:
    """Materialize a TopologySpec as a CommGraph.

    A delay tau from agent s at epoch k to agent s' becomes the edge from
    node s + S*(k-1) to node s' + S*(k+tau-1) when k + tau <= K; messages
    that would arrive after the horizon are dropped.  A graph's draws (a delay,
    or random4's link state, per pair) are made in one call, in the order
    of one draw per pair: epoch, then sender, then receiver, and on the
    star each spoke -> hub draw just before its hub -> spoke one.  So the
    stream, and the graph, are those of one call per pair.
    """
    if spec.kind == "chain41":
        n = 41
        a = np.zeros((n, n), dtype=np.int8)
        a[0, 1:] = 1
        for i in range(n - 1):
            a[i, i + 1] = 1
        a[:-1, n - 1] = 1
        return CommGraph(a)

    if spec.kind == "explicit":
        return load_graph(spec.path)

    s_cnt, k_cnt = spec.agents, spec.epochs
    # 0-based (epoch, sender, receiver) of every pair of the kind, in draw order
    if spec.kind == "star_delay":
        # per epoch and spoke: the spoke -> hub draw, then the hub -> spoke one
        k, spoke, back = np.indices((k_cnt, s_cnt - 1, 2)).reshape(3, -1)
        s_from, s_to = np.where(back, 0, spoke + 1), np.where(back, spoke + 1, 0)
    else:
        k, s_from, s_to = np.indices((k_cnt, s_cnt, s_cnt)).reshape(3, -1)
        off = s_from != s_to
        k, s_from, s_to = k[off], s_from[off], s_to[off]
    if spec.kind == "random4":
        status = rng.integers(4, size=k.size)  # delay 1, 2, 3, or no link
        link, tau = status < 3, status + 1
    else:
        delays = np.asarray(spec.delays, dtype=np.int64)
        link, tau = True, delays[rng.integers(0, delays.size, size=k.size)]
    keep = link & (k + tau < k_cnt)  # messages that would arrive after the horizon are dropped
    k, s_from, s_to, arrive = k[keep], s_from[keep], s_to[keep], (k + tau)[keep]
    a = np.zeros((s_cnt * k_cnt,) * 2, dtype=np.int8)
    a[s_from + s_cnt * k, s_to + s_cnt * arrive] = 1
    return CommGraph(a)


def seed_rng(seed: int, child: int) -> np.random.Generator:
    """Generator of child `child` of SeedSequence(seed), the one seed scheme.

    Child 0 draws the graph (topology_rng) and child r >= 1 drives Monte
    Carlo run r, so a graph realization never shares a stream with the runs
    over it, and any run can be repeated on its own.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(child,)))


def topology_rng(seed: int) -> np.random.Generator:
    """Generator used for topology realization under a scenario seed: seed_rng(seed, 0)."""
    return seed_rng(seed, 0)


def augment_for_constraint(graph: CommGraph) -> CommGraph:
    """Add the direct edges the availability constraint asks for.

    Every violation (n, j) has t_n(j) = 1 already (a nonzero weight implies
    reachability), so the added edge j -> n is redundant for the closure and
    leaves every weight vector unchanged; one pass makes the graph clean.
    The new graph shares the input's closure, and its weights and blocks,
    which the weight solve derived: that every added edge is already in the
    closure is checked, and proves the closure unchanged.  Neither are the
    blocks: node n's latest in-neighbour is its latest strict ancestor, at
    or after any j that reaches it.
    """
    needed = (graph.weights != 0) & (graph.adjacency == 0)
    if not needed.any():
        return graph
    if not graph.closure[needed].all():
        j, n = np.argwhere(needed & (graph.closure == 0))[0] + 1
        raise IncestlessError(f"added edge {j}->{n} would change the transitive closure")
    adjacency = graph.adjacency | needed.astype(np.int8)
    adjacency.flags.writeable = False
    fixed = copy.copy(graph)
    object.__setattr__(fixed, "adjacency", adjacency)
    return fixed


# ---------------------------------------------------------------------------
# files: write_files writes every output of the package (`incestless run`'s
# four files and the graph file), whole or not at all; the edge-list graph
# file has the header "N <size>", then one "<i> <j>" line per edge

def write_files(directory, files) -> None:
    """Write each file of `files`, a mapping of name to text chunks, in
    `directory`, whole or not at all (LF line endings).

    Each file is written under the temporary name .<name>.<pid>.tmp, and
    all of them are renamed into place after the last one is written, so an
    OSError while making the directory or writing leaves none of the files
    behind, nor any of the directories this call made; a file at one of the
    names keeps what it held before.  A name that is empty, . or .., and a
    directory standing at one of the names, are refused by an
    IsADirectoryError naming that path before anything is made or written,
    since their rename would fail after the others.
    """
    final = {name: os.path.join(directory, name) for name in files}
    for name, path in final.items():
        if name in ("", os.curdir, os.pardir) or os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, "Is a directory", path)
    temp = {name: os.path.join(directory, f".{name}.{os.getpid()}.tmp") for name in files}
    created = _missing_dirs(directory)
    try:
        os.makedirs(directory or os.curdir, exist_ok=True)
        for name, chunks in files.items():
            with open(temp[name], "w", newline="\n") as f:
                for chunk in chunks:
                    f.write(chunk)
        for name in files:
            os.replace(temp[name], final[name])
    except OSError:
        for path in temp.values():
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in created:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _missing_dirs(path) -> list[str]:
    """The directories os.makedirs(path) would create, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.isdir(path) and path != os.path.dirname(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def save_graph(graph: CommGraph, path) -> None:
    """Write the graph's edge-list file at `path` through write_files: whole
    or not at all, in a directory made if it is missing."""
    head, name = os.path.split(os.fspath(path))
    edges = (f"{i + 1} {j + 1}\n" for i, j in np.argwhere(graph.adjacency))
    write_files(head, {name: itertools.chain([f"N {graph.size}\n"], edges)})


def load_graph(path) -> CommGraph:
    """The graph of an edge-list file; GraphFormatError, prefixed by the
    path, for a malformed one."""
    try:
        with open(path) as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except UnicodeDecodeError as e:
        raise GraphFormatError(f"{path}: {e}") from None
    if not lines or not lines[0].startswith("N "):
        raise GraphFormatError(f"{path}: missing 'N <size>' header")
    try:
        _, size = lines[0].split()  # exactly "N <size>"
        size = int(size)
    except ValueError:
        raise GraphFormatError(f"{path}: bad header {lines[0]!r}")
    if size < 0:
        raise GraphFormatError(f"{path}: bad header {lines[0]!r}: negative size")
    edges = []
    for ln in lines[1:]:
        try:
            i, j = map(int, ln.split())
        except ValueError:
            raise GraphFormatError(f"{path}: bad edge line {ln!r}")
        edges.append((i, j))
    try:
        return graph_from_edges(size, edges)
    except GraphFormatError as e:
        raise GraphFormatError(f"{path}: {e}") from None


def graph_from_edges(size: int, edges) -> CommGraph:
    """The graph of `size` nodes with the 1-based edges (i, j).

    GraphFormatError unless size is an integer >= 0 and every edge is a
    pair of integers with 1 <= i < j <= size.
    """
    if not is_integer(size) or size < 0:
        raise GraphFormatError(f"graph size must be an integer >= 0, got {size!r}")
    a = np.zeros((size, size), dtype=np.int8)
    for edge in edges:
        try:
            i, j = edge
        except (TypeError, ValueError):
            raise GraphFormatError(f"edge {edge!r} is not a pair (i, j)") from None
        if not (is_integer(i) and is_integer(j) and 1 <= i < j <= size):
            raise GraphFormatError(f"edge {i}->{j} requires 1 <= i < j <= {size}")
        a[i - 1, j - 1] = 1
    return CommGraph(a)
