"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""

import numpy as np
import pytest
from click.testing import CliRunner

from incestless import (
    CommGraph,
    StateModel,
    TopologySpec,
    augment_for_constraint,
    compute_weights,
    constraint_report,
    graph_from_edges,
    transitive_closure,
)
from incestless.cli import main as cli_main
from incestless.learning import action_likelihood
from incestless.simulate import ScenarioConfig, monte_carlo, run_once

from conftest import (
    DIAMOND_A_EDGES,
    DIAMOND_B_EDGES,
    bfs_closure,
    closure_by_inversion,
    random_dag,
)


def report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}")


def random_model(rng, num_states=None):
    x = num_states or int(rng.integers(2, 7))
    z = int(rng.integers(2, 7))
    a = int(rng.integers(2, 6))
    return StateModel(
        prior=rng.dirichlet(np.ones(x)),
        likelihood=rng.dirichlet(np.ones(z), size=x),
        cost=rng.random((x, a)),
    )


def test_1_golden_weight_vector():
    g = graph_from_edges(5, DIAMOND_A_EDGES)
    w5 = compute_weights(g, 5)
    assert w5.dtype == np.int64
    assert list(w5) == [-1, -1, 1, 1]
    report("1 golden weights", "w_5 = [-1, -1, 1, 1], exact")


def test_2_constraint_detection():
    g_bad = graph_from_edges(5, DIAMOND_B_EDGES)
    assert constraint_report(g_bad) == {5: [2]}
    g_ok = graph_from_edges(5, DIAMOND_A_EDGES)
    assert constraint_report(g_ok) == {}
    report("2 constraint detection", "violation at node 5 index 2; clean variant clean")


def test_3_removal_equals_idealized_on_random_dags():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(500):
        size = int(rng.integers(2, 31))
        g = augment_for_constraint(
            CommGraph(random_dag(rng, size, edge_prob=0.3))
        )
        model = random_model(rng)
        cfg = ScenarioConfig(model=model, topology=TopologySpec(kind="chain41"),
                             true_state="random", modes=("removal", "idealized"),
                             runs=1, seed=0)
        trace = run_once(cfg, g, np.random.default_rng(trial))
        removal, ideal = cfg.modes.index("removal"), cfg.modes.index("idealized")
        diff = np.abs(trace.after[removal] - trace.after[ideal]).max()
        worst = max(worst, diff)
        assert diff <= 1e-10
        assert np.array_equal(trace.actions[removal], trace.actions[ideal])
    report("3 removal == idealized", f"500 random DAGs, worst belief diff {worst:.2e}")


def test_4_closure_oracle():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        a = random_dag(rng, int(rng.integers(1, 51)))
        assert (transitive_closure(a) == bfs_closure(a)).all()
    for _ in range(200):
        a = random_dag(rng, int(rng.integers(1, 21)))
        assert (transitive_closure(a) == closure_by_inversion(a)).all()
    report("4 closure oracle", "1000 BFS checks (N<=50), 200 inversion checks (N<=20)")


def test_5_action_likelihood_partition():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        model = random_model(rng)
        pub = rng.dirichlet(np.ones(model.num_states))
        total = np.zeros(model.num_states)
        for a in range(1, model.num_actions + 1):
            try:
                total += np.exp(action_likelihood(pub, a, model))
            except Exception:
                pass
        err = np.abs(total - 1.0).max()
        worst = max(worst, err)
        assert err <= 1e-12
    report("5 likelihood partition", f"1000 draws, worst deviation {worst:.2e}")


def test_6_tree_equivalence(model):
    rng = np.random.default_rng(6)
    for trial in range(100):
        size = int(rng.integers(2, 20))
        a = np.zeros((size, size), dtype=np.int8)
        for j in range(1, size):
            a[int(rng.integers(j)), j] = 1
        g = CommGraph(a)
        cfg = ScenarioConfig(model=model, topology=TopologySpec(kind="chain41"),
                             true_state="random", modes=("naive", "removal"),
                             runs=1, seed=0)
        trace = run_once(cfg, g, np.random.default_rng(trial))
        naive, removal = cfg.modes.index("naive"), cfg.modes.index("removal")
        assert np.array_equal(trace.actions[naive], trace.actions[removal])
        assert np.abs(trace.after[naive] - trace.after[removal]).max() <= 1e-12
    report("6 tree equivalence", "100 random in-trees, naive == removal")


SCENARIOS = {
    "chain41": (TopologySpec(kind="chain41"), 0),
    "complete_delay": (TopologySpec(kind="complete_delay", agents=6, epochs=3), 16),
    "star_delay": (TopologySpec(kind="star_delay", agents=6, epochs=4), 3),
    "random4": (TopologySpec(kind="random4", agents=5, epochs=4), 7),
}


def test_7a_removal_tracks_idealized_mean_curve(model):
    worst = {}
    for name, (topo, seed) in SCENARIOS.items():
        cfg = ScenarioConfig(model=model, topology=topo, true_state=10,
                             modes=("naive", "removal", "idealized"),
                             runs=100, seed=seed)
        mt = monte_carlo(cfg)
        assert mt.constraint == {}, f"{name}: expected constraint-clean realization"
        # removal matches the full-history benchmark in every run, at every node
        gap = np.abs(mt.estimates["removal"] - mt.estimates["idealized"]).max()
        assert gap <= 1e-12, f"{name}: estimate gap {gap}"
        assert np.array_equal(mt.actions["removal"], mt.actions["idealized"]), name
        dev = np.abs(mt.mean_estimate["removal"] - mt.mean_estimate["idealized"]).max()
        worst[name] = dev
        assert dev < 0.01, f"{name}: mean-estimate deviation {dev}"
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report("7a mean curves", detail)


@pytest.mark.parametrize("name", ["chain41", "complete_delay"])
def test_7b_final_mse_removal_beats_naive(model, name):
    topo, seed = SCENARIOS[name]
    cfg = ScenarioConfig(model=model, topology=topo, true_state=10,
                         modes=("naive", "removal"), runs=500, seed=seed)
    mt = monte_carlo(cfg)
    sq_naive = (mt.estimates["naive"][:, -1] - 10.0) ** 2
    sq_removal = (mt.estimates["removal"][:, -1] - 10.0) ** 2
    diff = sq_naive - sq_removal
    rng = np.random.default_rng(0)
    idx = rng.integers(0, diff.size, size=(2000, diff.size))
    boots = diff[idx].mean(axis=1)
    lower = np.quantile(boots, 0.05)
    assert lower > 0.0, (
        f"{name}: paired bootstrap 95% lower bound {lower} not above zero"
    )
    report(f"7b final MSE ({name})",
           f"naive {sq_naive.mean():.4f} > removal {sq_removal.mean():.4f}, "
           f"bootstrap lower {lower:.4f}")


def test_8_cli_determinism(tmp_path):
    runner = CliRunner()
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        res = runner.invoke(cli_main, ["run", "paper_chain41", "--runs", "5",
                                       "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        outs.append(out)
    for name in ("actions.csv", "estimates.csv", "mse.csv", "constraint.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report("8 CLI determinism", "byte-identical CSVs across reruns")
