import numpy as np
import pytest

from incestless import (
    CommGraph,
    ConstraintViolationError,
    TopologySpec,
    default_model,
    graph_from_edges,
    normalize_log,
)
from incestless.simulate import ScenarioConfig, monte_carlo, run_once

from conftest import DIAMOND_A_EDGES


def scenario(model, **kw):
    defaults = dict(
        model=model,
        topology=TopologySpec(kind="chain41"),
        true_state=10,
        modes=("naive", "removal", "idealized"),
        runs=1,
        seed=0,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def random_tree(rng, size):
    """In-tree: every node after the first has exactly one parent."""
    a = np.zeros((size, size), dtype=np.int8)
    for j in range(1, size):
        a[int(rng.integers(j)), j] = 1
    return CommGraph(a, num_agents=size, num_epochs=1)


class TestRunOnce:
    def test_single_node_all_modes_agree(self, model):
        g = CommGraph(np.zeros((1, 1), dtype=np.int8), num_agents=1, num_epochs=1)
        cfg = scenario(model, modes=("naive", "removal", "idealized", "obs_oracle"))
        trace = run_once(cfg, g, np.random.default_rng(0))
        actions = {m: trace.records[m][0].action for m in cfg.modes}
        assert len(set(actions.values())) == 1
        for m in ("naive", "removal", "idealized"):
            assert np.allclose(trace.records[m][0].public, model.prior)

    def test_chain_naive_equals_removal(self, model):
        g = graph_from_edges(6, [(i, i + 1) for i in range(1, 6)])
        cfg = scenario(model)
        trace = run_once(cfg, g, np.random.default_rng(1))
        for rn, rr in zip(trace.records["naive"], trace.records["removal"]):
            assert rn.action == rr.action
            assert np.allclose(rn.after, rr.after, atol=1e-12)

    def test_diamond_removal_matches_idealized(self, model, diamond_a):
        cfg = scenario(model)
        for seed in range(10):
            trace = run_once(cfg, diamond_a, np.random.default_rng(seed))
            for ri, rr in zip(trace.records["idealized"], trace.records["removal"]):
                assert ri.action == rr.action
                assert np.abs(ri.after - rr.after).max() <= 1e-10

    def test_naive_fuses_in_neighbours_with_unit_weights(self, model, diamond_b):
        # uniform prior: the public log-belief is the sum of the in-neighbours'
        # after-action log-beliefs, up to a constant.  Node 2 reaches node 5
        # but sends it nothing, so it must not count there.
        cfg = scenario(model, modes=("naive",))
        for seed in range(5):
            recs = run_once(cfg, diamond_b, np.random.default_rng(seed)).records["naive"]
            for n in range(1, 6):
                with np.errstate(divide="ignore"):
                    logs = [np.log(recs[i].after)
                            for i in np.flatnonzero(diamond_b.adjacency[:, n - 1])]
                expected = normalize_log(np.sum(logs, axis=0)) if logs else model.prior
                assert np.allclose(recs[n - 1].public, expected, atol=1e-12)

    def test_diamond_naive_differs_somewhere(self, model, diamond_a):
        # existence check: data incest changes at least one node-5 belief
        cfg = scenario(model)
        diffs = []
        for seed in range(50):
            trace = run_once(cfg, diamond_a, np.random.default_rng(seed))
            r5n = trace.records["naive"][4]
            r5i = trace.records["idealized"][4]
            diffs.append(np.abs(r5n.after - r5i.after).max())
        assert max(diffs) > 1e-6

    def test_shared_observations_across_modes(self, model, diamond_a):
        cfg = scenario(model, modes=("naive", "removal", "idealized", "obs_oracle"))
        trace = run_once(cfg, diamond_a, np.random.default_rng(2))
        for n in range(5):
            obs = {trace.records[m][n].observation for m in cfg.modes}
            assert len(obs) == 1
            assert obs.pop() == trace.observations[n]

    def test_tree_naive_equals_removal(self, model):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_tree(rng, int(rng.integers(2, 15)))
            cfg = scenario(model)
            trace = run_once(cfg, g, np.random.default_rng(int(rng.integers(1000))))
            for rn, rr in zip(trace.records["naive"], trace.records["removal"]):
                assert rn.action == rr.action
                assert np.allclose(rn.after, rr.after, atol=1e-12)

    def test_constraint_violation_aborts(self, model, diamond_b):
        cfg = scenario(model)
        with pytest.raises(ConstraintViolationError):
            run_once(cfg, diamond_b, np.random.default_rng(0))

    def test_force_proceeds_on_violation(self, model, diamond_b):
        cfg = scenario(model, force=True)
        trace = run_once(cfg, diamond_b, np.random.default_rng(0))
        assert len(trace.records["removal"]) == 5

    def test_true_state_random_uses_prior(self, model):
        g = graph_from_edges(2, [(1, 2)])
        cfg = scenario(model, true_state="random")
        states = {run_once(cfg, g, np.random.default_rng(s)).true_state
                  for s in range(30)}
        assert len(states) > 3
        assert all(1 <= x <= 20 for x in states)


class TestMonteCarlo:
    def test_runs_one_wraps_run_once(self, model):
        cfg = scenario(model, topology=TopologySpec(kind="chain41"), runs=1)
        mt = monte_carlo(cfg)
        g = graph_from_edges(41, [])  # placeholder sizes only
        assert mt.num_nodes == 41
        ss = np.random.SeedSequence(cfg.seed)
        children = ss.spawn(2)
        from incestless.graph import generate_topology

        graph = generate_topology(cfg.topology, np.random.default_rng(children[0]))
        trace = run_once(cfg, graph, np.random.default_rng(children[1]))
        for m in cfg.modes:
            assert np.allclose(mt.estimates[m][0],
                               [r.estimate for r in trace.records[m]])

    def test_deterministic(self, model):
        cfg = scenario(model, runs=5)
        a = monte_carlo(cfg)
        b = monte_carlo(cfg)
        for m in cfg.modes:
            assert (a.estimates[m] == b.estimates[m]).all()
            assert (a.actions[m] == b.actions[m]).all()

    def test_noiseless_mse_zero(self):
        from incestless import StateModel

        x = 6
        m = StateModel(prior=np.full(x, 1 / x), likelihood=np.eye(x),
                       cost=1.0 - np.eye(x))
        g = graph_from_edges(4, [(1, 2), (2, 3), (3, 4)])
        cfg = ScenarioConfig(model=m, topology=TopologySpec(kind="chain41"),
                             true_state=3, modes=("removal", "idealized"),
                             runs=5, seed=0, estimate_rule="map")
        mt = monte_carlo(cfg, graph=g)
        for mode in cfg.modes:
            assert (mt.mse[mode] == 0).all()

    def test_removal_equals_idealized_on_clean_graphs(self, model):
        for name, topo, seed in [
            ("star", TopologySpec(kind="star_delay", agents=6, epochs=4), 3),
            ("random4", TopologySpec(kind="random4", agents=5, epochs=4), 7),
        ]:
            cfg = scenario(model, topology=topo, seed=seed, runs=5)
            mt = monte_carlo(cfg)
            assert mt.constraint == {}, name
            assert np.abs(mt.estimates["removal"] - mt.estimates["idealized"]).max() <= 1e-9

    def test_constraint_violation_exit(self, model):
        # most complete_delay realizations violate the constraint
        cfg = scenario(model,
                       topology=TopologySpec(kind="complete_delay", agents=6, epochs=4),
                       seed=0, runs=2)
        with pytest.raises(ConstraintViolationError):
            monte_carlo(cfg)

    def test_metrics_shapes(self, model, diamond_a):
        cfg = scenario(model, runs=4, modes=("naive", "removal", "idealized"))
        mt = monte_carlo(cfg, graph=diamond_a)
        for m in cfg.modes:
            assert mt.estimates[m].shape == (4, 5)
            assert mt.mean_estimate[m].shape == (5,)
            assert mt.mse[m].shape == (5,)
            assert (mt.mse[m] >= 0).all()
            assert mt.action_hist[m].sum(axis=1).tolist() == [4] * 5
