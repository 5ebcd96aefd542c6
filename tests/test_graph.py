import copy
import dataclasses
import os
import re
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incestless import cli
from incestless import graph as graphmod
from incestless.simulate import build_graph, run_once, run_tables

from incestless import (
    CommGraph,
    DagViolationError,
    GraphFormatError,
    TopologySpec,
    WeightOverflowError,
    augment_for_constraint,
    IncestlessError,
    compute_weights,
    constraint_report,
    generate_topology,
    graph_from_edges,
    load_graph,
    save_graph,
    topology_rng,
    transitive_closure,
    weight_matrix,
)

from conftest import (
    bfs_closure,
    blocks_by_closure,
    closure_by_edges,
    closure_by_inversion,
    exact_weight_matrix,
    generate_topology_by_pairs,
    int64_weights_by_rows,
    layered,
    prefix,
    random_dag,
    run_python,
    violations_by_column,
)


def dag_violations(adjacency):
    """The (i, j) entries transitive_closure refuses by a DagViolationError,
    [] when it builds the closure."""
    try:
        transitive_closure(adjacency)
    except DagViolationError as e:
        return e.violations
    return []


class TestValidateDag:
    def test_zero_matrix_ok(self):
        assert dag_violations(np.zeros((5, 5))) == []

    def test_back_in_time_edge(self):
        a = np.zeros((4, 4))
        a[2, 1] = 1
        assert dag_violations(a) == [(3, 2)]

    def test_diamond_ok(self, diamond_a):
        assert dag_violations(diamond_a.adjacency) == []

    def test_non_square(self):
        with pytest.raises(GraphFormatError):
            dag_violations(np.zeros((3, 4)))

    def test_non_binary(self):
        with pytest.raises(GraphFormatError):
            dag_violations(np.full((3, 3), 0.5))

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_one_non_binary_entry(self, value):
        a = np.zeros((4, 4), dtype=type(value))
        a[0, 2] = value
        with pytest.raises(GraphFormatError):
            dag_violations(a)


class TestClosure:
    def test_empty_graph_identity(self):
        assert (transitive_closure(np.zeros((4, 4))) == np.eye(4)).all()

    def test_chain_full_upper(self):
        g = graph_from_edges(3, [(1, 2), (2, 3)])
        assert (g.closure == np.triu(np.ones((3, 3)))).all()

    def test_diamond_t5(self, diamond_a):
        assert (diamond_a.closure[:4, 4] == [1, 1, 1, 1]).all()

    def test_cyclic_rejected(self):
        a = np.zeros((3, 3))
        a[1, 0] = 1
        with pytest.raises(DagViolationError):
            transitive_closure(a)

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            size = int(rng.integers(1, 51))
            a = random_dag(rng, size)
            assert (transitive_closure(a) == bfs_closure(a)).all()

    def test_matches_inversion_formula_small(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            size = int(rng.integers(1, 21))
            a = random_dag(rng, size)
            assert (transitive_closure(a) == closure_by_inversion(a)).all()

    def test_idempotent_under_redundant_edges(self):
        # adding the off-diagonal part of the closure as edges changes nothing
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = random_dag(rng, int(rng.integers(2, 20)))
            t = transitive_closure(a)
            saturated = np.triu(np.maximum(a, t), k=1)
            assert (transitive_closure(saturated) == t).all()

    def test_matches_per_edge_reference_on_random4(self):
        spec = TopologySpec(kind="random4", agents=10, epochs=20)
        a = generate_topology(spec, np.random.default_rng(4)).adjacency
        t = transitive_closure(a)
        assert t.dtype == np.int8 and t.shape == (200, 200)
        assert (t == closure_by_edges(a)).all()

    @pytest.mark.parametrize("size", [63, 64, 65, 127, 128, 129, 150, 200])
    @pytest.mark.parametrize("edge_prob", [0.01, 0.05, 0.5])
    def test_matches_per_edge_reference_across_blocks(self, size, edge_prob):
        # sizes on, just before and just after a multiple of 64 bits, so the
        # bit rows' last word and the unpacked bytes' padding bits are cut off
        rng = np.random.default_rng(size)
        for _ in range(3):
            a = random_dag(rng, size, edge_prob)
            t = transitive_closure(a)
            assert t.dtype == np.int8 and t.flags.c_contiguous
            assert np.array_equal(t, closure_by_edges(a))

    def test_long_chain(self):
        # each row is its successor's row plus one bit: the last node's bit
        # passes through all 699 ORs to reach the first row
        a = np.eye(700, k=1, dtype=np.int8)
        assert np.array_equal(transitive_closure(a), np.triu(np.ones((700, 700), dtype=np.int8)))

    def test_matches_per_edge_reference_on_large_star(self):
        # N = 2000: rows of 32 words, past every other graph of the suite
        spec = TopologySpec(kind="star_delay", agents=10, epochs=200)
        a = generate_topology(spec, topology_rng(3)).adjacency
        t = transitive_closure(a)
        assert t.shape == (2000, 2000) and t.dtype == np.int8 and t.flags.c_contiguous
        assert np.array_equal(t, closure_by_edges(a))

    def test_peak_memory_at_ten_thousand_nodes(self):
        # star_delay 10 x 1000 (1.8 edges per node) peaks near 335 MB with the
        # closure built from the edges as bit-set rows; a closure over an N x N
        # float32 working array, as the GEMM-and-squaring one was, peaks near 990 MB
        res = run_python("-c", "import resource; from incestless import TopologySpec, "
                         "generate_topology, topology_rng; generate_topology(TopologySpec("
                         "kind='star_delay', agents=10, epochs=1000), topology_rng(3)); "
                         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)")
        assert res.returncode == 0, res.stderr
        assert float(res.stdout) <= 600, f"peak RSS {float(res.stdout):.0f} MB"

    def test_complete_dag(self):
        # every pair an edge: each row ORs every later row
        a = np.triu(np.ones((130, 130), dtype=np.int8), k=1)
        assert np.array_equal(transitive_closure(a), np.triu(np.ones((130, 130), dtype=np.int8)))

    def test_violations_payload_equals_validate_dag(self):
        a = np.triu(np.ones((6, 6)), k=1)
        a[4, 1] = a[3, 3] = a[5, 0] = 1
        with pytest.raises(DagViolationError) as err:
            transitive_closure(a)
        assert err.value.violations == [(4, 4), (5, 2), (6, 1)]

    @pytest.mark.parametrize("a", [np.zeros((3, 4)), np.zeros(3), np.full((3, 3), 0.5),
                                   np.triu(np.full((3, 3), 2), k=1)])
    def test_bad_format_rejected(self, a):
        with pytest.raises(GraphFormatError):
            transitive_closure(a)


class TestExtract:
    # t_n and b_n of node n are column n of the closure and of the adjacency, above the diagonal
    def test_diamond_node5(self, diamond_a):
        assert list(diamond_a.closure[:4, 4]) == [1, 1, 1, 1]
        assert list(diamond_a.adjacency[:4, 4]) == [1, 1, 1, 1]

    def test_diamond_b_node5(self, diamond_b):
        assert list(diamond_b.closure[:4, 4]) == [1, 1, 1, 1]
        assert list(diamond_b.adjacency[:4, 4]) == [1, 0, 1, 1]


class TestWeights:
    def test_single_edge(self):
        g = graph_from_edges(2, [(1, 2)])
        assert list(compute_weights(g, 2)) == [1]

    def test_diamond_golden(self, diamond_a):
        assert list(compute_weights(diamond_a, 5)) == [-1, -1, 1, 1]

    @pytest.mark.parametrize("n", [0, 6, True, 2.0])
    def test_bad_node_raises(self, diamond_a, n):
        with pytest.raises(ValueError, match=r"out of range 1\.\.5"):
            compute_weights(diamond_a, n)

    def test_defining_system_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            size = int(rng.integers(2, 30))
            g = CommGraph(random_dag(rng, size))
            n = int(rng.integers(2, size + 1))
            w = compute_weights(g, n)
            t_n = g.closure[: n - 1, n - 1]
            # defining system: w_n @ T'_{n-1} = t_n
            residual = g.closure[: n - 1, : n - 1].astype(np.int64) @ w - t_n
            assert (residual == 0).all()

    def test_float_residual(self, diamond_a):
        w = compute_weights(diamond_a, 5).astype(np.float64)
        t5 = diamond_a.closure[:4, 4]
        res = diamond_a.closure[:4, :4].astype(np.float64) @ w - t5
        assert np.abs(res).max() <= 1e-12

    def test_matrix_solves_defining_system(self):
        # T W = T - I, column n of which is T_{n-1} w_n = t_n
        rng = np.random.default_rng(12)
        for _ in range(50):
            size = int(rng.integers(1, 30))
            g = CommGraph(random_dag(rng, size))
            w = weight_matrix(g)
            t = g.closure.astype(np.int64)
            assert (t @ w == t - np.eye(size, dtype=np.int64)).all()
            n = int(rng.integers(1, size + 1))
            assert (w[: n - 1, n - 1] == compute_weights(g, n)).all()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_exact_solve_on_random_dags(self, data):
        size = data.draw(st.integers(0, 40), label="size")
        bits = data.draw(st.lists(st.booleans(), min_size=size * (size - 1) // 2,
                                  max_size=size * (size - 1) // 2), label="edges")
        a = np.zeros((size, size), dtype=np.int8)
        a[np.triu_indices(size, 1)] = bits
        g = CommGraph(a)
        assert np.array_equal(weight_matrix(g), exact_weight_matrix(g))

    @pytest.mark.parametrize("kind", ["random4", "complete_delay", "star_delay"])
    def test_float_solve_equals_int64_solve(self, kind, limb_solves):
        # the N = 400 graphs of these kinds pass the float64 proof check in
        # every column, so the limb solve is never called
        spec = TopologySpec(kind=kind, agents=10, epochs=40)
        g = generate_topology(spec, topology_rng(0))
        _, unproven, start = graphmod._float_weights(g)
        assert unproven.size == 0 and start == 0
        w = weight_matrix(g)
        assert limb_solves == []
        assert np.array_equal(w, graphmod._int64_weights(g))

    def test_prefix_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            size = int(rng.integers(3, 25))
            g = CommGraph(random_dag(rng, size))
            n = int(rng.integers(2, size))
            sub = prefix(g, n)
            assert (compute_weights(sub, n) == compute_weights(g, n)).all()


class TestWeightOverflow:
    # with 5 agents, the largest |w| of the last node is exactly 4^(layers-2):
    # 2^62 at 33 layers, 2^64 (beyond int64) at 34

    def test_beyond_int64_raises(self):
        # the whole graph is solved, so compute_weights(g, 170) names the
        # first weight beyond int64 in solve order, not one of w_170
        g = layered(5, 34)
        with pytest.raises(WeightOverflowError) as exc:
            weight_matrix(g)
        assert exc.value.node == 166
        assert str(exc.value) == "node 166: weight w_166(5) exceeds the int64 range"
        with pytest.raises(WeightOverflowError) as column:
            compute_weights(g, 170)
        assert column.value.node == exc.value.node and str(column.value) == str(exc.value)
        for solve in (constraint_report, augment_for_constraint):
            with pytest.raises(WeightOverflowError):
                solve(g)

    def test_just_inside_int64_exact(self):
        g = layered(5, 33)
        n = g.size
        w = [int(v) for v in compute_weights(g, n)]
        assert max(abs(v) for v in w) == 2**62
        t = [[int(v) for v in row] for row in g.closure]
        for j in range(n - 1):
            assert sum(t[j][k] * w[k] for k in range(n - 1)) == t[j][n - 1]
        # every column: T W = T - I in Python ints
        t_obj = g.closure.astype(object)
        identity = np.eye(n, dtype=np.int8).astype(object)
        assert (t_obj.dot(weight_matrix(g).astype(object)) == t_obj - identity).all()


class TestGraphWeights:
    def test_solved_once_and_read_only(self, diamond_a, weight_solves):
        w = diamond_a.weights
        assert diamond_a.weights is w and weight_solves == [diamond_a]
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 4] = 5
        assert np.array_equal(w, exact_weight_matrix(diamond_a))

    def test_compute_weights_returns_a_writable_copy(self, diamond_a):
        w5 = compute_weights(diamond_a, 5)
        assert w5.flags.writeable
        w5[:] = 0
        assert list(diamond_a.weights[:4, 4]) == [-1, -1, 1, 1]

    def test_overflow_raises_on_every_access(self, weight_solves):
        g = layered(5, 34)
        for _ in range(2):
            with pytest.raises(WeightOverflowError, match="node 166"):
                g.weights
        with pytest.raises(WeightOverflowError, match="node 166"):
            compute_weights(g, 2)
        assert weight_solves == [g] * 3


class TestWeightProofCheck:
    # with 5 agents, each column's sum of |x| (X = T^-1) stays below 2^53
    # up to 27 layers (0.83 * 2^53) and exceeds it at 28 (3.3 * 2^53)

    @pytest.mark.parametrize("layers, proven", [(27, True), (28, False)])
    def test_boundary(self, layers, proven, limb_solves):
        g = layered(5, layers)
        _, unproven, _ = graphmod._float_weights(g)
        assert (unproven.size == 0) == proven
        w = weight_matrix(g)
        assert len(limb_solves) == (0 if proven else 1)
        assert np.array_equal(w, exact_weight_matrix(g))


class TestInt64Weights:
    # the limb solve must give the row-by-row int64 solve's arrays and errors

    @pytest.mark.parametrize("layers", range(28, 34))
    def test_equals_row_loop_on_layered(self, layers):
        g = layered(5, layers)
        assert np.array_equal(graphmod._int64_weights(g), int64_weights_by_rows(g.closure))

    def test_carry_between_limbs(self):
        # past the float64 proof check, with weights above 2^53 that are odd
        # or negative, so the low limbs carry into the high ones
        spec = TopologySpec(kind="complete_delay", agents=10, epochs=46)
        g = generate_topology(spec, topology_rng(1))
        assert graphmod._float_weights(g)[1].size > 0
        w = graphmod._int64_weights(g)
        assert np.array_equal(w, int64_weights_by_rows(g.closure))
        assert np.array_equal(weight_matrix(g), w)
        big = np.abs(w) > 2**53
        assert (big & (w % 2 == 1)).sum() == 19 and (big & (w < 0)).sum() == 29
        t = g.closure.astype(np.int64)
        assert np.array_equal(t @ w, t - np.eye(g.size, dtype=np.int64))

    @pytest.mark.parametrize("kind, arg, message", [
        ("layered", 34, "w_166(5)"),
        ("layered", 35, "w_171(10)"),
        ("layered", 40, "w_196(35)"),
        ("complete_delay", 0, "w_581(58)"),
        ("complete_delay", 1, "w_591(62)"),
        ("complete_delay", 2, "w_593(28)"),
        ("complete_delay", 3, "w_596(20)"),
    ])
    def test_same_overflow_error_as_row_loop(self, kind, arg, message):
        # arg: the layer count of a 5-agent layered graph, or the seed of a
        # complete_delay graph of 10 agents x 60 epochs
        if kind == "layered":
            g = layered(5, arg)
        else:
            spec = TopologySpec(kind=kind, agents=10, epochs=60)
            g = generate_topology(spec, topology_rng(arg))
        closure = g.closure
        with pytest.raises(WeightOverflowError) as rows:
            int64_weights_by_rows(closure)
        with pytest.raises(WeightOverflowError) as limbs:
            graphmod._int64_weights(g)
        assert message in str(rows.value)
        assert str(limbs.value) == str(rows.value) and limbs.value.node == rows.value.node
        # the limb solve resumed where the float solve's proof stops
        with pytest.raises(WeightOverflowError) as resumed:
            weight_matrix(g)
        assert str(resumed.value) == str(rows.value) and resumed.value.node == rows.value.node

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_exact_solve_on_random_dags(self, data):
        size = data.draw(st.integers(0, 150), label="size")
        edge_prob = data.draw(st.sampled_from([0.02, 0.1, 0.3, 0.7]), label="edge_prob")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        a = random_dag(np.random.default_rng(seed), size, edge_prob)
        g = CommGraph(a)
        assert np.array_equal(graphmod._int64_weights(g), exact_weight_matrix(g))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_resumed_solve_equals_exact_solve(self, data):
        # any block boundary as the first solved row, any subset of columns
        size = data.draw(st.integers(0, 150), label="size")
        edge_prob = data.draw(st.sampled_from([0.02, 0.1, 0.3, 0.7]), label="edge_prob")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        start = data.draw(st.sampled_from(sorted({*range(0, size, 64), size})), label="start")
        columns = np.flatnonzero(data.draw(
            st.lists(st.booleans(), min_size=size, max_size=size), label="columns"))
        g = CommGraph(random_dag(np.random.default_rng(seed), size, edge_prob))
        exact = exact_weight_matrix(g)[:, columns]
        known = exact[start:].astype(np.int64)
        assert np.array_equal(graphmod._int64_weights(g, columns, known), exact)


class TestResumedWeights:
    # weight_matrix takes the float solve's proven columns and resumes the
    # limb solve on the others: it must give the row-by-row int64 solve's
    # arrays and errors.  On layered(a, L) the float64 proof first fails at
    # L = 53, 34, 28, 24 and int64 first overflows at L = 66, 42, 34, 30 for
    # a = 3, 4, 5, 6; each L below sits on one side of one boundary.

    @pytest.mark.parametrize("kind, a, b", [
        ("layered", agents, layers)
        for agents, proof, over in [(3, 53, 66), (4, 34, 42), (5, 28, 34), (6, 24, 30)]
        for layers in (proof - 1, proof, over - 1, over)
    ] + [("complete_delay", epochs, seed) for epochs in range(44, 49) for seed in range(3)])
    def test_equals_row_loop(self, kind, a, b):
        # layered(a agents, b layers), or complete_delay with 10 agents x
        # a epochs at topology_rng(b)
        if kind == "layered":
            g = layered(a, b)
        else:
            spec = TopologySpec(kind=kind, agents=10, epochs=a)
            g = generate_topology(spec, topology_rng(b))
        try:
            expected = int64_weights_by_rows(g.closure)
        except WeightOverflowError as rows:
            with pytest.raises(WeightOverflowError) as resumed:
                weight_matrix(g)
            assert str(resumed.value) == str(rows) and resumed.value.node == rows.node
        else:
            assert np.array_equal(weight_matrix(g), expected)

    @pytest.mark.parametrize("graph", ["complete_delay", "layered"])
    def test_limb_solve_only_on_unproven_columns(self, graph, limb_solves):
        if graph == "complete_delay":
            spec = TopologySpec(kind="complete_delay", agents=10, epochs=46)
            g = generate_topology(spec, topology_rng(1))
        else:
            g = layered(5, 28)
        _, unproven, start = graphmod._float_weights(g)
        w = weight_matrix(g)
        [(columns, known)] = limb_solves
        assert np.array_equal(columns, unproven) and 0 < columns.size < g.size
        assert known.shape == (g.size - start, columns.size) and start < g.size
        assert start % graphmod._BLOCK == 0
        assert np.array_equal(w, int64_weights_by_rows(g.closure))



def long_run_graph():
    """200 nodes: 1..10 a chain that node 1 also broadcasts along, then
    11..150, which hear only nodes 1..10 and so form one run of 140 nodes,
    holding the whole block of rows 64..127, then 151..200, a chain in
    which each node also hears three nodes of the run."""
    edges = {(n - 1, n) for n in range(2, 11)} | {(1, n) for n in range(3, 11)}
    edges |= {(src, n) for n in range(11, 151) for src in (10, n * 3 % 9 + 1)}
    edges |= {(n - 1, n) for n in range(151, 201)}
    edges |= {(11 + n * step % 140, n) for n in range(151, 201) for step in (7, 11, 13)}
    return graph_from_edges(200, sorted(edges))


class TestRunWiseSolves:
    # both weight solves solve a block's own rows one run at a time, the
    # graph's blocks cut at the _BLOCK-row block edges: they
    # must give the row-by-row int64 solve's arrays and errors wherever
    # the runs lie

    def test_run_longer_than_a_block(self, limb_solves):
        g = long_run_graph()
        assert [(lo, hi) for lo, hi in g.blocks if hi - lo > 1] == [(10, 150)]
        assert graphmod._block_runs(g.blocks, 0, 64)[0] == (10, 64)
        assert graphmod._block_runs(g.blocks, 64, 128) == [(0, 64)]
        assert graphmod._block_runs(g.blocks, 128, 192)[-1] == (0, 22)
        expected = exact_weight_matrix(g)
        assert np.array_equal(int64_weights_by_rows(g.closure), expected)
        # the float solve proves every column
        assert np.array_equal(weight_matrix(g), expected) and limb_solves == []
        assert np.array_equal(graphmod._int64_weights(g), expected)
        # the limb solve resumed at row 64, 128 or 192 starts inside the run
        # or just below it
        for start in (64, 128, 192):
            known = expected[start:].astype(np.int64)
            solved = graphmod._int64_weights(g, np.arange(g.size), known)
            assert np.array_equal(solved, expected)

    @pytest.mark.parametrize("epochs, seed", [(30, 0), (74, 0), (82, 1), (86, 0)])
    def test_runs_across_block_edges(self, epochs, seed):
        # with 7 agents the first epochs are one run of 7 rows each, and
        # 64 = 9 * 7 + 1, so the runs of rows 63..69, 126..132 and 189..195
        # (0-based) cross block edges; 7 x 74 and 7 x 82 fail the float64
        # proof and stay in int64, and 7 x 86 at seed 0 leaves int64 at row
        # 34, inside the run of rows 29..35 (1-based), whose last row does
        # not wrap
        spec = TopologySpec(kind="complete_delay", agents=7, epochs=epochs)
        g = generate_topology(spec, topology_rng(seed))
        assert {(63, 70), (126, 133), (189, 196)} <= set(g.blocks)
        assert graphmod._block_runs(g.blocks, 0, 64)[0] == (63, 64)
        try:
            expected = int64_weights_by_rows(g.closure)
        except WeightOverflowError as rows:
            assert str(rows) == "node 600: weight w_600(34) exceeds the int64 range"
            with pytest.raises(WeightOverflowError) as limbs:
                graphmod._int64_weights(g)
            with pytest.raises(WeightOverflowError) as resumed:
                weight_matrix(g)
            for error in (limbs.value, resumed.value):
                assert str(error) == str(rows) and error.node == rows.node
        else:
            assert np.array_equal(graphmod._int64_weights(g), expected)
            assert np.array_equal(weight_matrix(g), expected)

    def test_resumed_inside_a_run(self, limb_solves):
        # complete_delay 7 x 74 at seed 0 fails the float64 proof first in
        # the block of rows 0..63, so the limb solve resumes at row 64, the
        # second row of the run of rows 63..69
        spec = TopologySpec(kind="complete_delay", agents=7, epochs=74)
        g = generate_topology(spec, topology_rng(0))
        w = weight_matrix(g)
        [(columns, known)] = limb_solves
        assert g.size - known.shape[0] == 64 and 0 < columns.size < g.size
        assert (63, 70) in g.blocks
        expected = int64_weights_by_rows(g.closure)
        assert np.array_equal(w, expected)
        every = graphmod._int64_weights(g, np.arange(g.size), expected[64:])
        assert np.array_equal(every, expected)


class TestConstraint:
    def test_diamond_a_satisfied(self, diamond_a):
        assert constraint_report(diamond_a) == {}

    def test_diamond_b_violation_at_2(self, diamond_b):
        assert constraint_report(diamond_b) == {5: [2]}

    def test_empty_graph_satisfied(self):
        g = CommGraph(np.zeros((6, 6), dtype=np.int8))
        assert constraint_report(g) == {}

    def test_redundant_edge_never_creates_violation(self):
        # an in-edge i -> n with T(i, n) already 1 leaves the closure (and
        # hence the weights) unchanged, so violations at n can only shrink.
        # Note a NON-redundant edge can create new violations: with edges
        # 1->2, 1->4, 4->5 node 5 is clean, but adding 2->5 forces a nonzero
        # weight on node 1 which has no direct edge to 5.
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(200):
            size = int(rng.integers(3, 20))
            a = random_dag(rng, size)
            g = CommGraph(a)
            n = int(rng.integers(2, size + 1))
            before = set(constraint_report(g).get(n, []))
            candidates = [
                i for i in range(n - 1)
                if a[i, n - 1] == 0 and g.closure[i, n - 1] == 1
            ]
            if not candidates:
                continue
            checked += 1
            i = candidates[int(rng.integers(len(candidates)))]
            a2 = a.copy()
            a2[i, n - 1] = 1
            g2 = CommGraph(a2)
            assert (g2.closure == g.closure).all()
            after = set(constraint_report(g2).get(n, []))
            assert after <= before
        assert checked > 20

    def test_nonredundant_edge_can_create_violation(self):
        g = graph_from_edges(5, [(1, 2), (1, 4), (4, 5)])
        assert constraint_report(g) == {}
        g2 = graph_from_edges(5, [(1, 2), (1, 4), (4, 5), (2, 5)])
        assert constraint_report(g2) == {5: [1]}

    def test_violations_equal_the_per_column_report(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            size = int(rng.integers(0, 30))
            g = CommGraph(random_dag(rng, size, edge_prob=float(rng.uniform(0.0, 0.5))))
            expected = violations_by_column(g.weights, g.adjacency)
            assert list(constraint_report(g).items()) == list(expected.items())
        # many violations: hundreds of nodes, tens of thousands of indices
        g = generate_topology(TopologySpec(kind="random4", agents=10, epochs=60), topology_rng(0))
        report = constraint_report(g)
        assert len(report) > 500
        expected = violations_by_column(g.weights, g.adjacency)
        assert list(report.items()) == list(expected.items())

    def test_augment_makes_clean(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            size = int(rng.integers(3, 25))
            g = CommGraph(random_dag(rng, size))
            fixed = augment_for_constraint(g)
            assert constraint_report(fixed) == {}
            # augmentation only adds redundant edges: closure is unchanged
            assert (fixed.closure == g.closure).all()


    def test_augment_shares_the_closure(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            size = int(rng.integers(3, 25))
            g = CommGraph(random_dag(rng, size))
            fixed = augment_for_constraint(g)
            rebuilt = CommGraph(fixed.adjacency)
            assert fixed.closure is g.closure
            assert np.array_equal(rebuilt.closure, fixed.closure)
            assert fixed.adjacency.dtype == np.int8 and not fixed.adjacency.flags.writeable
            assert fixed.digest() == rebuilt.digest()

    def test_augment_rejects_an_edge_that_changes_the_closure(self, monkeypatch):
        # weights claiming that node 5 needs node 4 of a graph where 4 does not reach 5
        g = graph_from_edges(5, [(1, 3), (2, 3), (3, 5), (1, 4)])
        weights = weight_matrix(g)
        weights[3, 4] = 1
        monkeypatch.setattr(graphmod, "weight_matrix", lambda graph: weights)
        with pytest.raises(IncestlessError, match="4->5"):
            augment_for_constraint(g)


class TestIndependentBlocks:
    def assert_schedule(self, g):
        blocks = g.blocks
        assert blocks == blocks_by_closure(g)
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == g.size
        assert all(hi > lo for lo, hi in blocks)
        for lo, hi in blocks:
            # no node of a block reaches another ...
            assert not np.triu(g.closure[lo:hi, lo:hi], 1).any()
            # ... and the next node is reached from the block, so it is maximal
            if hi < g.size:
                assert g.closure[lo:hi, hi].any()
        return blocks

    def test_random_dags(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            size = int(rng.integers(1, 30))
            a = random_dag(rng, size, edge_prob=float(rng.uniform(0.0, 0.4)))
            self.assert_schedule(CommGraph(a))

    def test_edgeless_and_empty(self):
        assert graph_from_edges(4, []).blocks == ((0, 4),)
        assert graph_from_edges(0, []).blocks == ()

    def test_chain41_is_sequential(self):
        g = generate_topology(TopologySpec(kind="chain41"), np.random.default_rng(0))
        assert self.assert_schedule(g) == tuple((n, n + 1) for n in range(41))

    @pytest.mark.parametrize("seed", range(3))
    def test_augmented_complete_delay_one_block_per_epoch(self, seed):
        spec = TopologySpec(kind="complete_delay", agents=10, epochs=20)
        g = augment_for_constraint(generate_topology(spec, topology_rng(seed)))
        assert self.assert_schedule(g) == tuple((10 * k, 10 * k + 10) for k in range(20))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_without_closure_equals_closure_scan_on_random_dags(self, data):
        size = data.draw(st.integers(0, 60), label="size")
        edge_prob = data.draw(st.sampled_from([0.01, 0.05, 0.2, 0.6]), label="edge_prob")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        g = CommGraph(random_dag(np.random.default_rng(seed), size, edge_prob))
        # the rule reads the edges alone
        blind = copy.copy(g)
        object.__setattr__(blind, "closure", None)
        assert blind.blocks == blocks_by_closure(g)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_from_in_edges_equal_closure_scan_and_survive_augmenting(self, data):
        # a node's latest in-neighbour is its latest strict ancestor, so the
        # in-edges give the closure's blocks; an added edge j -> n has j at
        # or before that ancestor, so augmenting keeps them
        size = data.draw(st.integers(0, 150), label="size")
        edge_prob = data.draw(st.sampled_from([0.005, 0.02, 0.1, 0.5]), label="edge_prob")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        g = CommGraph(random_dag(np.random.default_rng(seed), size, edge_prob))
        assert g.blocks == blocks_by_closure(g)
        fixed = augment_for_constraint(g)
        assert fixed.blocks == g.blocks == CommGraph(fixed.adjacency).blocks

    @pytest.mark.parametrize("graph", ["complete_delay", "layered"])
    def test_derived_once_per_graph(self, graph, monkeypatch, limb_solves):
        # W (the float solve, and on layered(5, 28) the limb solve too), the
        # constraint report, augmenting, and a run over the graph and over
        # its augmented copy all read the blocks derived once
        derived = []
        derive = CommGraph.blocks.func

        def counted(g):
            derived.append(g)
            return derive(g)

        counting = cached_property(counted)
        counting.__set_name__(CommGraph, "blocks")
        monkeypatch.setattr(CommGraph, "blocks", counting)
        config = dataclasses.replace(
            cli.build_scenario(cli.load_config_file("paper_random4")), force=True)
        if graph == "complete_delay":
            g = generate_topology(TopologySpec(kind=graph, epochs=6), topology_rng(0))
        else:
            g = layered(5, 28)
        assert g.weights is not None and len(limb_solves) == (graph == "layered")
        constraint_report(g)
        fixed = augment_for_constraint(g)
        assert fixed is not g
        for h in (g, fixed):
            run_once(config, h, topology_rng(1), tables=run_tables(config, h))
        assert derived == [g]

    @pytest.mark.parametrize("name", ["paper_chain41", "paper_complete", "paper_star",
                                      "paper_random4"])
    def test_bundled_graphs(self, name):
        self.assert_schedule(build_graph(cli.build_scenario(cli.load_config_file(name))))

    @pytest.mark.parametrize("kind", ["complete_delay", "star_delay", "random4"])
    def test_augmenting_leaves_the_blocks(self, kind):
        # an added edge joins two nodes of which one already reaches the
        # other, so never two nodes of one block
        spec = TopologySpec(kind=kind, agents=6, epochs=8)
        for seed in range(10):
            g = generate_topology(spec, topology_rng(seed))
            fixed = augment_for_constraint(g)
            assert CommGraph(fixed.adjacency).blocks == g.blocks == blocks_by_closure(g)


class TestTopologies:
    def test_chain41_degrees(self):
        g = generate_topology(TopologySpec(kind="chain41"), np.random.default_rng(0))
        assert g.size == 41
        assert g.adjacency[:, 40].sum() == 40     # node 41 hears everyone
        assert g.adjacency[0, 1:].sum() == 40     # node 1 reaches everyone directly
        assert constraint_report(g) == {}

    def test_star_node_count(self):
        g = generate_topology(
            TopologySpec(kind="star_delay", agents=6, epochs=4),
            np.random.default_rng(0),
        )
        assert g.size == 24

    def test_complete_late_delay_edgeless(self):
        spec = TopologySpec(kind="complete_delay", agents=3, epochs=4, delays=(5,))
        g = generate_topology(spec, np.random.default_rng(0))
        assert g.adjacency.sum() == 0

    def test_star_spokes_only_touch_hub(self):
        g = generate_topology(
            TopologySpec(kind="star_delay", agents=4, epochs=3),
            np.random.default_rng(1),
        )
        for i, j in np.argwhere(g.adjacency):
            # node n is agent (n - 1) mod S + 1, and row i is node i + 1
            s_i, s_j = int(i) % 4 + 1, int(j) % 4 + 1
            assert s_i == 1 or s_j == 1

    def test_random4_valid(self):
        for seed in range(5):
            g = generate_topology(
                TopologySpec(kind="random4", agents=5, epochs=4),
                np.random.default_rng(seed),
            )
            assert g.size == 20
            assert not np.tril(g.adjacency).any()

    @pytest.mark.parametrize("kind, agents, epochs, delays", [
        (kind, agents, epochs, delays)
        for kind in ("complete_delay", "star_delay", "random4")
        for agents, epochs in ((1, 3), (2, 1), (2, 4), (3, 3), (6, 5))
        for delays in ((1,), (1, 2), (1, 3, 5))
        if agents > 1 or kind != "star_delay"  # a star needs a hub and a spoke
    ])
    def test_one_draw_call_equals_one_draw_per_pair(self, kind, agents, epochs, delays):
        spec = TopologySpec(kind=kind, agents=agents, epochs=epochs, delays=delays)
        for seed in range(20):
            rng, by_pairs = np.random.default_rng(seed), np.random.default_rng(seed)
            g = generate_topology(spec, rng)
            assert np.array_equal(g.adjacency, generate_topology_by_pairs(spec, by_pairs))
            assert rng.bit_generator.state == by_pairs.bit_generator.state

    @pytest.mark.parametrize("delays", [(-1,), (0,), (1.5, 2), (True,)])
    def test_delay_that_is_not_a_positive_integer_raises(self, delays):
        from incestless import ConfigError

        with pytest.raises(ConfigError, match="delays must be positive integers"):
            TopologySpec(kind="complete_delay", agents=2, epochs=3, delays=delays)

    def test_numpy_integer_delays_accepted(self):
        spec = TopologySpec(kind="complete_delay", agents=2, epochs=3, delays=(np.int64(1), 2))
        assert generate_topology(spec, np.random.default_rng(0)).size == 6

    @pytest.mark.parametrize("field, value", [
        ("agents", 2.5), ("agents", "3"), ("agents", True), ("epochs", 3.0), ("epochs", None),
    ])
    def test_agents_and_epochs_must_be_integers(self, field, value):
        from incestless import ConfigError

        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            TopologySpec(kind="complete_delay", **{field: value})

    @pytest.mark.parametrize("delays", [5, "12", None])
    def test_delays_must_be_a_list(self, delays):
        from incestless import ConfigError

        with pytest.raises(ConfigError, match="delays must be a list"):
            TopologySpec(kind="complete_delay", delays=delays)

    def test_bad_spec(self):
        from incestless import ConfigError

        with pytest.raises(ConfigError):
            TopologySpec(kind="star_delay", agents=1)
        with pytest.raises(ConfigError):
            TopologySpec(kind="nonsense")
        with pytest.raises(ConfigError):
            TopologySpec(kind="explicit")


class TestCommGraphAdjacency:
    @pytest.mark.parametrize("entry", [256, 0.5, 1.7, 257, -1])
    def test_entry_that_is_not_0_or_1_raises(self, entry):
        a = np.zeros((4, 4), dtype=np.int64 if float(entry).is_integer() else np.float64)
        a[1, 2] = entry
        with pytest.raises(GraphFormatError, match="0 or 1"):
            CommGraph(a)

    def test_keeps_a_read_only_copy(self):
        a = np.zeros((4, 4), dtype=np.int8)
        a[0, 1] = 1
        g = CommGraph(a)
        assert a.flags.writeable and not g.adjacency.flags.writeable
        assert not np.shares_memory(a, g.adjacency)
        a[1, 2] = 1  # a write through the caller's array does not reach the graph
        assert g.adjacency[1, 2] == 0
        assert np.array_equal(g.closure, bfs_closure(g.adjacency))

    @pytest.mark.parametrize("adjacency", [np.int8(0), np.zeros(4, dtype=np.int8)],
                             ids=["0-d", "1-d"])
    def test_not_a_matrix_raises(self, adjacency):
        with pytest.raises(GraphFormatError, match="square"):
            CommGraph(adjacency)


class TestGraphFromEdges:
    def test_builds_the_edges(self):
        g = graph_from_edges(4, [(1, 2), (np.int64(2), 4)])
        assert [tuple(e) for e in np.argwhere(g.adjacency) + 1] == [(1, 2), (2, 4)]

    @pytest.mark.parametrize("edge", [(1, 0), (0, 2), (2, 2), (3, 1), (1, 5), (1.0, 2),
                                      (1, 2.0), (True, 2)])
    def test_bad_edge_raises(self, edge):
        with pytest.raises(GraphFormatError, match="requires 1 <= i < j <= 3"):
            graph_from_edges(3, [edge])

    @pytest.mark.parametrize("edge", [(1, 2, 3), (1,), 5])
    def test_edge_not_a_pair_raises(self, edge):
        with pytest.raises(GraphFormatError, match=rf"edge {re.escape(repr(edge))} is not a pair"):
            graph_from_edges(3, [edge])

    @pytest.mark.parametrize("size", [-1, 2.0, "3", None])
    def test_bad_size_raises(self, size):
        with pytest.raises(GraphFormatError, match="graph size"):
            graph_from_edges(size, [])


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        for i in range(100):
            size = int(rng.integers(1, 30))
            g = CommGraph(random_dag(rng, size))
            path = tmp_path / f"g{i}.txt"
            save_graph(g, path)
            loaded = load_graph(path)
            assert (loaded.adjacency == g.adjacency).all()

    def test_overwrite_leaves_only_the_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("old\n")
        save_graph(graph_from_edges(3, [(1, 2), (2, 3)]), path)
        assert path.read_text() == "N 3\n1 2\n2 3\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_leaves_no_file(self, tmp_path, full_disk):
        graph = generate_topology(TopologySpec("random4", agents=5, epochs=4), topology_rng(1))
        with pytest.raises(OSError, match="No space left"):
            save_graph(graph, tmp_path / "g.txt")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_directories(self, tmp_path, full_disk):
        (tmp_path / "kept").mkdir()
        graph = generate_topology(TopologySpec("random4", agents=5, epochs=4), topology_rng(1))
        with pytest.raises(OSError, match="No space left"):
            save_graph(graph, tmp_path / "kept" / "new" / "a" / "g.txt")
        assert list((tmp_path / "kept").iterdir()) == []

    def test_failed_write_keeps_the_file_at_the_path(self, tmp_path, full_disk):
        path = tmp_path / "g.txt"
        path.write_bytes(b"N 2\n1 2\n")
        graph = generate_topology(TopologySpec("random4", agents=5, epochs=4), topology_rng(1))
        with pytest.raises(OSError, match="No space left"):
            save_graph(graph, path)
        assert path.read_bytes() == b"N 2\n1 2\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_directory_path_is_refused_before_anything_is_made(self, tmp_path):
        path = f"{tmp_path / 'd'}{os.sep}"
        with pytest.raises(IsADirectoryError, match=re.escape(f"Is a directory: '{path}'")):
            save_graph(graph_from_edges(3, [(1, 2)]), path)
        assert list(tmp_path.iterdir()) == []

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n")
        with pytest.raises(GraphFormatError):
            load_graph(p)

    def test_backward_edge_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("N 3\n3 2\n")
        with pytest.raises(GraphFormatError):
            load_graph(p)

    @pytest.mark.parametrize("text, line", [
        ("N 3\n1 x\n", "'1 x'"),
        ("N 3\n1 5\n", "1->5"),
        ("N 3\n0 2\n", "0->2"),
        ("N 3\n1 2 3\n", "'1 2 3'"),
        ("N -3\n", "'N -3'"),
        ("N 3 7\n1 2\n", "'N 3 7'"),
    ])
    def test_bad_line_names_the_file_and_the_line(self, tmp_path, text, line):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(GraphFormatError) as exc:
            load_graph(p)
        assert str(exc.value).startswith(f"{p}: ") and line in str(exc.value)
