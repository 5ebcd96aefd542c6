import numpy as np
import pytest

from incestless import (
    CommGraph,
    DagViolationError,
    GraphFormatError,
    TopologySpec,
    WeightOverflowError,
    augment_for_constraint,
    check_constraint,
    compute_weights,
    constraint_report,
    deindex,
    generate_topology,
    graph_from_edges,
    load_graph,
    reindex,
    save_graph,
    transitive_closure,
    validate_dag,
    weight_matrix,
)

from conftest import bfs_closure, closure_by_edges, closure_by_inversion, prefix, random_dag


class TestReindex:
    def test_first_node(self):
        assert reindex(1, 1, 2) == 1

    def test_two_agents_three_epochs_last(self):
        assert reindex(2, 3, 2) == 6

    def test_round_trip_example(self):
        assert reindex(5, 4, 6) == 23
        assert deindex(23, 6) == (5, 4)

    def test_round_trip_exhaustive(self):
        for num_agents in range(1, 11):
            for s in range(1, num_agents + 1):
                for k in range(1, 11):
                    n = reindex(s, k, num_agents)
                    assert deindex(n, num_agents) == (s, k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reindex(3, 1, 2)
        with pytest.raises(ValueError):
            reindex(1, 0, 2)
        with pytest.raises(ValueError):
            deindex(0, 2)


class TestValidateDag:
    def test_zero_matrix_ok(self):
        assert validate_dag(np.zeros((5, 5))) == []

    def test_back_in_time_edge(self):
        a = np.zeros((4, 4))
        a[2, 1] = 1
        assert validate_dag(a) == [(3, 2)]

    def test_diamond_ok(self, diamond_a):
        assert validate_dag(diamond_a.adjacency) == []

    def test_non_square(self):
        with pytest.raises(GraphFormatError):
            validate_dag(np.zeros((3, 4)))

    def test_non_binary(self):
        with pytest.raises(GraphFormatError):
            validate_dag(np.full((3, 3), 0.5))

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_one_non_binary_entry(self, value):
        a = np.zeros((4, 4), dtype=type(value))
        a[0, 2] = value
        with pytest.raises(GraphFormatError):
            validate_dag(a)


class TestClosure:
    def test_empty_graph_identity(self):
        assert (transitive_closure(np.zeros((4, 4))) == np.eye(4)).all()

    def test_chain_full_upper(self):
        g = graph_from_edges(3, [(1, 2), (2, 3)])
        assert (g.closure == np.triu(np.ones((3, 3)))).all()

    def test_diamond_t5(self, diamond_a):
        t5, _ = diamond_a.extract_t_b(5)
        assert (t5 == [1, 1, 1, 1]).all()

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


class TestExtract:
    def test_first_node_empty(self, diamond_a):
        t1, b1 = diamond_a.extract_t_b(1)
        assert t1.size == 0 and b1.size == 0

    def test_diamond_node5(self, diamond_a):
        t5, b5 = diamond_a.extract_t_b(5)
        assert list(t5) == [1, 1, 1, 1]
        assert list(b5) == [1, 1, 1, 1]

    def test_diamond_b_node5(self, diamond_b):
        t5, b5 = diamond_b.extract_t_b(5)
        assert list(t5) == [1, 1, 1, 1]
        assert list(b5) == [1, 0, 1, 1]

    def test_out_of_range(self, diamond_a):
        with pytest.raises(ValueError):
            diamond_a.extract_t_b(6)


class TestWeights:
    def test_single_edge(self):
        g = graph_from_edges(2, [(1, 2)])
        assert list(compute_weights(g, 2)) == [1]

    def test_diamond_golden(self, diamond_a):
        assert list(compute_weights(diamond_a, 5)) == [-1, -1, 1, 1]

    def test_defining_system_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            size = int(rng.integers(2, 30))
            g = CommGraph(random_dag(rng, size), num_agents=size, num_epochs=1)
            n = int(rng.integers(2, size + 1))
            w = compute_weights(g, n)
            t_n, _ = g.extract_t_b(n)
            # defining system: w_n @ T'_{n-1} = t_n
            residual = g.closure[: n - 1, : n - 1].astype(np.int64) @ w - t_n
            assert (residual == 0).all()

    def test_float_residual(self, diamond_a):
        w = compute_weights(diamond_a, 5).astype(np.float64)
        t5, _ = diamond_a.extract_t_b(5)
        res = diamond_a.closure[:4, :4].astype(np.float64) @ w - t5
        assert np.abs(res).max() <= 1e-12

    def test_matrix_solves_defining_system(self):
        # T W = T - I, column n of which is T_{n-1} w_n = t_n
        rng = np.random.default_rng(12)
        for _ in range(50):
            size = int(rng.integers(1, 30))
            g = CommGraph(random_dag(rng, size), num_agents=size, num_epochs=1)
            w = weight_matrix(g)
            t = g.closure.astype(np.int64)
            assert (t @ w == t - np.eye(size, dtype=np.int64)).all()
            n = int(rng.integers(1, size + 1))
            assert (w[: n - 1, n - 1] == compute_weights(g, n)).all()

    def test_prefix_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            size = int(rng.integers(3, 25))
            g = CommGraph(random_dag(rng, size), num_agents=size, num_epochs=1)
            n = int(rng.integers(2, size))
            sub = prefix(g, n)
            assert (compute_weights(sub, n) == compute_weights(g, n)).all()


def layered(agents, layers):
    """Every node links to all nodes of the next layer (epoch)."""
    return graph_from_edges(agents * layers, [
        (reindex(s, k, agents), reindex(s2, k + 1, agents))
        for k in range(1, layers)
        for s in range(1, agents + 1)
        for s2 in range(1, agents + 1)
    ])


class TestWeightOverflow:
    # with 5 agents, the largest |w| of the last node is exactly 4^(layers-2):
    # 2^62 at 33 layers, 2^64 (beyond int64) at 34

    def test_beyond_int64_raises(self):
        g = layered(5, 34)
        with pytest.raises(WeightOverflowError) as exc:
            compute_weights(g, 170)
        assert exc.value.node == 170
        for solve in (weight_matrix, constraint_report, augment_for_constraint):
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


class TestConstraint:
    def test_diamond_a_satisfied(self, diamond_a):
        w = compute_weights(diamond_a, 5)
        _, b5 = diamond_a.extract_t_b(5)
        assert check_constraint(w, b5) == []

    def test_diamond_b_violation_at_2(self, diamond_b):
        w = compute_weights(diamond_b, 5)
        _, b5 = diamond_b.extract_t_b(5)
        assert check_constraint(w, b5) == [2]

    def test_empty_graph_satisfied(self):
        g = CommGraph(np.zeros((6, 6), dtype=np.int8), num_agents=6, num_epochs=1)
        assert constraint_report(g) == {}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_constraint(np.ones(3), np.ones(4))

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
            g = CommGraph(a, num_agents=size, num_epochs=1)
            n = int(rng.integers(2, size + 1))
            w = compute_weights(g, n)
            _, b_n = g.extract_t_b(n)
            before = set(check_constraint(w, b_n))
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
            g2 = CommGraph(a2, num_agents=size, num_epochs=1)
            assert (g2.closure == g.closure).all()
            w2 = compute_weights(g2, n)
            _, b2 = g2.extract_t_b(n)
            after = set(check_constraint(w2, b2))
            assert after <= before
        assert checked > 20

    def test_nonredundant_edge_can_create_violation(self):
        g = graph_from_edges(5, [(1, 2), (1, 4), (4, 5)])
        assert constraint_report(g) == {}
        g2 = graph_from_edges(5, [(1, 2), (1, 4), (4, 5), (2, 5)])
        assert constraint_report(g2) == {5: [1]}

    def test_augment_makes_clean(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            size = int(rng.integers(3, 25))
            g = CommGraph(random_dag(rng, size), num_agents=size, num_epochs=1)
            fixed = augment_for_constraint(g)
            assert constraint_report(fixed) == {}
            # augmentation only adds redundant edges: closure is unchanged
            assert (fixed.closure == g.closure).all()


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
        assert validate_dag(g.adjacency) == []

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
            s_i, _ = deindex(int(i) + 1, 4)
            s_j, _ = deindex(int(j) + 1, 4)
            assert s_i == 1 or s_j == 1

    def test_random4_valid(self):
        for seed in range(5):
            g = generate_topology(
                TopologySpec(kind="random4", agents=5, epochs=4),
                np.random.default_rng(seed),
            )
            assert g.size == 20
            assert validate_dag(g.adjacency) == []

    def test_bad_spec(self):
        from incestless import ConfigError

        with pytest.raises(ConfigError):
            TopologySpec(kind="star_delay", agents=1)
        with pytest.raises(ConfigError):
            TopologySpec(kind="nonsense")
        with pytest.raises(ConfigError):
            TopologySpec(kind="explicit")


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        for i in range(100):
            size = int(rng.integers(1, 30))
            g = CommGraph(random_dag(rng, size), num_agents=size, num_epochs=1)
            path = tmp_path / f"g{i}.txt"
            save_graph(g, path)
            loaded = load_graph(path)
            assert (loaded.adjacency == g.adjacency).all()

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
