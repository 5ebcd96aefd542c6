import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incestless import (
    CommGraph,
    ConfigError,
    ConstraintViolationError,
    EvidenceOverflowError,
    IncestlessError,
    StateModel,
    TopologySpec,
    WeightOverflowError,
    action_likelihood,
    action_table,
    augment_for_constraint,
    cli,
    default_model,
    generate_topology,
    graph_from_edges,
    normalize_log,
)
from incestless import graph as graphmod
from incestless import learning, simulate
from incestless.simulate import ScenarioConfig, build_graph, monte_carlo, run_once

from conftest import DIAMOND_A_EDGES, coefficient_table, reference_run_once

ALL_MODES = ("naive", "removal", "idealized", "obs_oracle")
BUNDLED = ("paper_chain41", "paper_complete", "paper_star", "paper_random4")
TRACE_ARRAYS = ("observations", "actions", "public", "after", "estimates")


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


def complete_dag(size):
    """Every node hears every earlier one: node n has 2^(n-2) paths from node 1."""
    a = np.triu(np.ones((size, size), dtype=np.int8), 1)
    return CommGraph(a)


def random_tree(rng, size):
    """In-tree: every node after the first has exactly one parent."""
    a = np.zeros((size, size), dtype=np.int8)
    for j in range(1, size):
        a[int(rng.integers(j)), j] = 1
    return CommGraph(a)


class TestScenarioConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("runs", 2.5, "runs must be an integer"),
        ("runs", "3", "runs must be an integer"),
        ("runs", True, "runs must be an integer"),
        ("seed", 1.9, "seed must be an integer"),
        ("true_state", 2.5, "true_state must be 'random' or an integer"),
        ("true_state", True, "true_state must be 'random' or an integer"),
        ("true_state", np.array([1, 2]), "true_state must be 'random' or an integer"),
        ("force", "no", "force must be true or false"),
        ("modes", [], "modes must name at least one mode"),
        ("modes", ["naive", "naive"], "modes must be unique"),
        ("modes", "naive", "modes must be a list of mode names"),
    ])
    def test_rejects_malformed_field(self, model, field, value, message):
        with pytest.raises(ConfigError, match=message):
            scenario(model, **{field: value})

    def test_accepts_numpy_integers_and_bools(self, model):
        config = scenario(model, runs=np.int32(2), seed=np.uint64(5), true_state=np.int64(3),
                          force=np.bool_(True), modes=["naive", "removal"])
        assert (config.runs, config.seed, config.true_state) == (2, 5, 3)
        assert config.modes == ("naive", "removal")


class TestRunOnce:
    def test_single_node_all_modes_agree(self, model):
        g = CommGraph(np.zeros((1, 1), dtype=np.int8))
        cfg = scenario(model, modes=("naive", "removal", "idealized", "obs_oracle"))
        trace = run_once(cfg, g, np.random.default_rng(0))
        assert len(set(trace.actions[:, 0].tolist())) == 1
        for m in ("naive", "removal", "idealized"):
            assert np.allclose(trace.public[cfg.modes.index(m), 0], model.prior)

    def test_chain_naive_equals_removal(self, model):
        g = graph_from_edges(6, [(i, i + 1) for i in range(1, 6)])
        cfg = scenario(model)
        trace = run_once(cfg, g, np.random.default_rng(1))
        naive, removal = cfg.modes.index("naive"), cfg.modes.index("removal")
        assert np.array_equal(trace.actions[naive], trace.actions[removal])
        assert np.allclose(trace.after[naive], trace.after[removal], atol=1e-12)

    def test_diamond_removal_matches_idealized(self, model, diamond_a):
        cfg = scenario(model)
        ideal, removal = cfg.modes.index("idealized"), cfg.modes.index("removal")
        for seed in range(10):
            trace = run_once(cfg, diamond_a, np.random.default_rng(seed))
            assert np.array_equal(trace.actions[ideal], trace.actions[removal])
            assert np.abs(trace.after[ideal] - trace.after[removal]).max() <= 1e-10

    def test_naive_fuses_in_neighbours_with_unit_weights(self, model, diamond_b):
        # uniform prior: the public log-belief is the sum of the in-neighbours'
        # after-action log-beliefs, up to a constant.  Node 2 reaches node 5
        # but sends it nothing, so it must not count there.
        cfg = scenario(model, modes=("naive",))
        for seed in range(5):
            trace = run_once(cfg, diamond_b, np.random.default_rng(seed))
            after, public = trace.after[0], trace.public[0]
            for n in range(1, 6):
                with np.errstate(divide="ignore"):
                    logs = [np.log(after[i])
                            for i in np.flatnonzero(diamond_b.adjacency[:, n - 1])]
                expected = normalize_log(np.sum(logs, axis=0)) if logs else model.prior
                assert np.allclose(public[n - 1], expected, atol=1e-12)

    def test_diamond_naive_differs_somewhere(self, model, diamond_a):
        # existence check: data incest changes at least one node-5 belief
        cfg = scenario(model)
        naive, ideal = cfg.modes.index("naive"), cfg.modes.index("idealized")
        diffs = []
        for seed in range(50):
            trace = run_once(cfg, diamond_a, np.random.default_rng(seed))
            diffs.append(np.abs(trace.after[naive, 4] - trace.after[ideal, 4]).max())
        assert max(diffs) > 1e-6

    def test_shared_observations_across_modes(self, model, diamond_a):
        cfg = scenario(model, modes=("naive", "removal", "idealized", "obs_oracle"))
        trace = run_once(cfg, diamond_a, np.random.default_rng(2))
        assert trace.observations.shape == (5,)
        for k, m in enumerate(cfg.modes):
            # a mode run alone draws the same observations and acts the same
            alone = run_once(scenario(model, modes=(m,)), diamond_a, np.random.default_rng(2))
            assert np.array_equal(alone.observations, trace.observations)
            assert np.array_equal(alone.actions[0], trace.actions[k])

    def test_tree_naive_equals_removal(self, model):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_tree(rng, int(rng.integers(2, 15)))
            cfg = scenario(model)
            trace = run_once(cfg, g, np.random.default_rng(int(rng.integers(1000))))
            naive, removal = cfg.modes.index("naive"), cfg.modes.index("removal")
            assert np.array_equal(trace.actions[naive], trace.actions[removal])
            assert np.allclose(trace.after[naive], trace.after[removal], atol=1e-12)

    def test_constraint_violation_aborts(self, model, diamond_b):
        cfg = scenario(model)
        with pytest.raises(ConstraintViolationError):
            run_once(cfg, diamond_b, np.random.default_rng(0))

    def test_force_proceeds_on_violation(self, model, diamond_b):
        cfg = scenario(model, force=True)
        trace = run_once(cfg, diamond_b, np.random.default_rng(0))
        assert trace.after[cfg.modes.index("removal")].shape == (5, model.num_states)

    def test_true_state_random_uses_prior(self, model):
        g = graph_from_edges(2, [(1, 2)])
        cfg = scenario(model, true_state="random")
        states = {run_once(cfg, g, np.random.default_rng(s)).true_state
                  for s in range(30)}
        assert len(states) > 3
        assert all(1 <= x <= 20 for x in states)

    @pytest.mark.parametrize("modes", [("naive", "removal", "idealized"), ("obs_oracle",),
                                       ("naive", "obs_oracle", "idealized")])
    def test_graph_without_nodes(self, model, modes, tmp_path):
        graph = graph_from_edges(0, [])
        config = scenario(model, modes=modes, runs=2)
        trace = run_once(config, graph, np.random.default_rng(0))
        m, x = len(modes), model.num_states
        assert trace.observations.shape == (0,)
        assert trace.actions.shape == trace.estimates.shape == (m, 0)
        assert trace.public.shape == trace.after.shape == (m, 0, x)
        metrics = monte_carlo(config, graph=graph)
        assert all(metrics.estimates[mode].shape == metrics.actions[mode].shape == (2, 0)
                   for mode in modes)
        cli.write_outputs(metrics, str(tmp_path))
        assert {f.name: f.read_text() for f in tmp_path.iterdir()} == {
            "actions.csv": "node,mode,run,action\n",
            "estimates.csv": "node,mode,mean_estimate\n",
            "mse.csv": "node,mode,mse\n",
            "constraint.txt": "all nodes satisfy the topological constraint\n"}


def draw_dag(data):
    """A drawn DAG of 1-14 nodes, augmented for the constraint or not."""
    size = data.draw(st.integers(1, 14), label="size")
    bits = data.draw(st.lists(st.booleans(), min_size=size * (size - 1) // 2,
                              max_size=size * (size - 1) // 2), label="edges")
    a = np.zeros((size, size), dtype=np.int8)
    a[np.triu_indices(size, 1)] = bits
    graph = CommGraph(a)
    if data.draw(st.booleans(), label="augment"):
        graph = augment_for_constraint(graph)
    return graph


def assert_same_as_reference(config, graph, seed):
    """run_once equals reference_run_once bit for bit, or raises the same
    error.  Returns the error the reference raised, or None."""
    try:
        expected = reference_run_once(config, graph, np.random.default_rng(seed))
    except (IncestlessError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            run_once(config, graph, np.random.default_rng(seed))
        assert str(got.value) == str(exc)
        return exc
    trace = run_once(config, graph, np.random.default_rng(seed))
    assert trace.true_state == expected.true_state
    assert trace.modes == config.modes
    for name in ("observations", "actions", "public", "after", "estimates"):
        assert np.array_equal(getattr(trace, name), getattr(expected, name)), name
    return None


class TestStackedRunMatchesReference:
    """The stacked belief update reproduces the per-node, per-mode loop exactly."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled(self, name):
        base = cli.build_scenario(cli.load_config_file(name), runs=1)
        graph = build_graph(base)
        for force in (False, True):
            for rule in ("mean", "map"):
                config = dataclasses.replace(base, modes=ALL_MODES, force=force,
                                             estimate_rule=rule)
                for seed in range(3):
                    assert assert_same_as_reference(config, graph, seed) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_augmented_complete_delay(self, seed):
        raw = {"topology": {"kind": "complete_delay", "agents": 10, "epochs": 20},
               "true_state": "random", "modes": list(ALL_MODES), "seed": seed}
        config = cli.build_scenario(raw, runs=1)
        graph = build_graph(config)
        augmented = augment_for_constraint(graph)
        assert augmented.size == 200
        assert_same_as_reference(config, augmented, seed)
        assert_same_as_reference(dataclasses.replace(config, force=True), graph, seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_one_state_model(self, seed):
        # With one state, learning.fuse's einsum reduces over the fused rows in
        # a SIMD loop, not in ascending order, so its fused evidence may differ
        # from the reference's in the last bits.  Every belief is exactly [1.0]
        # whatever its evidence, so no output does.  obs_oracle's own
        # increments, log p(z | x), are nonzero, so its evidence is too.
        model = StateModel(prior=[1.0], likelihood=[[0.1, 0.2, 0.3, 0.4]],
                           cost=[[1.0, 0.0, 2.0]])
        raw = {"topology": {"kind": "complete_delay", "agents": 10, "epochs": 20},
               "true_state": "random", "modes": list(ALL_MODES), "seed": seed}
        config = dataclasses.replace(cli.build_scenario(raw, runs=3), model=model)
        graph = augment_for_constraint(build_graph(config))
        assert assert_same_as_reference(config, graph, seed) is None
        expected = [reference_run_once(config, graph, graphmod.seed_rng(config.seed, r))
                    for r in range(1, config.runs + 1)]
        assert_same_runs(shared_study(config, graph, simulate.run_tables(config, graph)),
                         expected)

    def test_study_without_removal_where_weights_leave_int64(self, model):
        # seed 3 of complete 10x60 has a weight beyond int64 (node 596), which
        # a study without removal never reads
        config = scenario(model, topology=TopologySpec(kind="complete_delay", agents=10,
                                                       epochs=60),
                          seed=3, modes=("naive", "idealized"))
        graph = build_graph(config)
        with pytest.raises(WeightOverflowError, match="node 596"):
            graphmod.weight_matrix(graph)
        assert assert_same_as_reference(config, graph, config.seed) is None

    def test_missed_violation_runs_as_forced(self, model, diamond_b, monkeypatch):
        # a constraint report that misses the violation lets the run reach node 5,
        # which fuses only the rows it receives, as under force
        monkeypatch.setattr(graphmod, "constraint_report", lambda graph: {})
        config = scenario(model, modes=ALL_MODES)
        forced = dataclasses.replace(config, force=True)
        for seed in range(3):
            expected = reference_run_once(forced, diamond_b, np.random.default_rng(seed))
            trace = run_once(config, diamond_b, np.random.default_rng(seed))
            assert trace.true_state == expected.true_state
            for name in TRACE_ARRAYS:
                assert np.array_equal(getattr(trace, name), getattr(expected, name)), name

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_dags(self, model, data):
        size = data.draw(st.integers(1, 14), label="size")
        bits = data.draw(st.lists(st.booleans(), min_size=size * (size - 1) // 2,
                                  max_size=size * (size - 1) // 2), label="edges")
        a = np.zeros((size, size), dtype=np.int8)
        a[np.triu_indices(size, 1)] = bits
        graph = CommGraph(a)
        if data.draw(st.booleans(), label="augment"):
            graph = augment_for_constraint(graph)
        config = scenario(model, modes=ALL_MODES, true_state="random",
                          force=data.draw(st.booleans(), label="force"),
                          estimate_rule=data.draw(st.sampled_from(["mean", "map"]), label="rule"))
        assert_same_as_reference(config, graph, data.draw(st.integers(0, 2**16), label="seed"))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_topologies(self, model, data):
        kind = data.draw(st.sampled_from(["complete_delay", "star_delay", "random4", "chain41"]),
                         label="kind")
        spec = TopologySpec(
            kind=kind,
            agents=data.draw(st.integers(2 if kind == "star_delay" else 1, 5), label="agents"),
            epochs=data.draw(st.integers(1, 4), label="epochs"),
            delays=tuple(data.draw(st.sets(st.sampled_from([1, 2, 3]), min_size=1),
                                   label="delays")))
        config = scenario(model, topology=spec, modes=ALL_MODES, true_state="random",
                          seed=data.draw(st.integers(0, 2**16), label="seed"),
                          force=data.draw(st.booleans(), label="force"),
                          estimate_rule=data.draw(st.sampled_from(["mean", "map"]), label="rule"))
        graph = build_graph(config)
        if data.draw(st.booleans(), label="augment"):
            graph = augment_for_constraint(graph)
        assert_same_as_reference(config, graph, config.seed)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_any_modes_in_any_order(self, model, data):
        # obs_oracle's row is a closed form inserted at its index in the modes,
        # alone or among the action-driven modes, whose block step runs without it
        order = data.draw(st.permutations(simulate.MODES), label="order")
        modes = tuple(order[:data.draw(st.integers(1, len(order)), label="count")])
        source = data.draw(st.sampled_from(["random dag", *BUNDLED]), label="graph")
        if source in BUNDLED:
            graph = build_graph(cli.build_scenario(cli.load_config_file(source)))
        else:
            graph = draw_dag(data)
        config = scenario(model, modes=modes, true_state="random",
                          force=data.draw(st.booleans(), label="force"),
                          estimate_rule=data.draw(st.sampled_from(["mean", "map"]), label="rule"))
        assert_same_as_reference(config, graph, data.draw(st.integers(0, 2**16), label="seed"))



class TestEvidenceOverflow:
    """Naive evidence counts paths; past the float64 range a run raises, naming the node."""

    @pytest.mark.parametrize("modes", [("naive",), ("naive", "removal", "idealized")])
    def test_complete_dag_raises_at_the_lowest_overflowing_node(self, model, modes):
        # 2^1014 paths lead from node 1 to node 1016
        config = scenario(model, modes=modes, runs=2)
        graph = complete_dag(1030)
        message = "node 1016: fused evidence left the float64 range"
        # a typed IncestlessError that is still the ValueError it was
        with pytest.raises(ValueError, match=message) as err:
            run_once(config, graph, np.random.default_rng(0))
        assert type(err.value) is EvidenceOverflowError
        with pytest.raises(ValueError, match=message) as err:
            monte_carlo(config, graph=graph)
        assert type(err.value) is EvidenceOverflowError
        if modes == ("naive",):
            assert str(assert_same_as_reference(config, graph, 0)) == message


class TestRunTables:
    def test_missed_violation_masks_removal_by_the_edges(self, model, monkeypatch):
        # Nodes 5 and 6 form one block, and each has a removal weight on a row
        # it does not hear: node 5 hears 1, 3, 4 but not 2, node 6 hears 2, 3,
        # 4 but not 1.  A constraint report that misses both lets the study
        # reach run_tables, whose removal rows are W masked by A.
        graph = graph_from_edges(6, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5), (1, 5),
                                     (3, 6), (4, 6), (2, 6)])
        assert graph.blocks[-1] == (4, 6)
        weights = graphmod.weight_matrix(graph)
        assert graphmod.constraint_report(graph) == {5: [2], 6: [1]}
        config = scenario(model, modes=ALL_MODES, runs=3)
        forced = monte_carlo(dataclasses.replace(config, force=True), graph=graph)
        monkeypatch.setattr(graphmod, "constraint_report", lambda graph: {})
        tables = simulate.run_tables(config, graph)
        removal = coefficient_table(tables)[ALL_MODES.index("removal")]
        assert np.array_equal(removal, (weights * graph.adjacency).T)
        assert weights[1, 4] != 0 and removal[4, 1] == 0  # node 5 drops row 2
        assert weights[0, 5] != 0 and removal[5, 0] == 0  # node 6 drops row 1
        metrics = monte_carlo(config, graph=graph)
        assert metrics.constraint == {}
        for mode in ALL_MODES:
            assert np.array_equal(metrics.estimates[mode], forced.estimates[mode]), mode
            assert np.array_equal(metrics.actions[mode], forced.actions[mode]), mode

    @pytest.mark.parametrize("modes", [ALL_MODES, ("naive", "idealized")])
    def test_one_constraint_report_per_study(self, model, modes, monkeypatch):
        # run_tables decides the condition through graph.constraint_report alone
        reported = []
        report = graphmod.constraint_report
        monkeypatch.setattr(graphmod, "constraint_report",
                            lambda graph: reported.append(graph) or report(graph))
        config = scenario(model, modes=modes, runs=3)
        graph = build_graph(config)
        metrics = monte_carlo(config, graph=graph)
        assert reported == [graph]
        assert metrics.constraint == report(graph)

    def test_forced_diamond_coefficients(self, model, diamond_b):
        # node 5 hears 1, 3 and 4; w_5 = [-1, -1, 1, 1] loses row 2 to the mask
        config = scenario(model, modes=ALL_MODES, force=True)
        coeffs = coefficient_table(simulate.run_tables(config, diamond_b))
        assert coeffs[:, 4].tolist() == [[1, 0, 1, 1, 0], [-1, 0, 1, 1, 0],
                                         [1, 1, 1, 1, 0], [1, 1, 1, 1, 0]]
        assert not np.signbit(coeffs[coeffs == 0]).any()  # every zero is +0.0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_no_mode_reads_a_row_its_node_does_not_receive(self, model, data):
        graph = draw_dag(data)
        modes = tuple(data.draw(st.permutations(ALL_MODES), label="modes"))
        config = scenario(model, modes=modes, force=data.draw(st.booleans(), label="force"))
        clean = not graphmod.constraint_report(graph)
        if not (clean or config.force):
            with pytest.raises(ConstraintViolationError):
                simulate.run_tables(config, graph)
            return
        coeffs = coefficient_table(simulate.run_tables(config, graph))
        history = graph.closure - np.eye(graph.size, dtype=np.int8)
        # after-evidence (naive, removal) arrives over edges, increments over history
        receives = {"naive": graph.adjacency, "removal": graph.adjacency,
                    "idealized": history, "obs_oracle": history}
        for k, mode in enumerate(modes):
            assert not coeffs[k][receives[mode].T == 0].any(), mode
            if mode != "removal":  # unit weight on every row the node receives
                assert np.array_equal(coeffs[k], receives[mode].T), mode
        if clean:
            assert np.array_equal(coeffs[modes.index("removal")], graph.weights.T)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_one_read_only_slice_per_block(self, name):
        # one (M, N, N) table, the action-driven modes' rows in their order
        # and obs_oracle's last, whatever its index in the modes; block
        # (lo, hi) fuses the read-only (M - 1, hi - lo, lo) view of its corner
        modes = ("obs_oracle", "naive", "removal", "idealized")
        config = dataclasses.replace(cli.build_scenario(cli.load_config_file(name)),
                                     modes=modes, force=True)
        graph = build_graph(config)
        tables = simulate.run_tables(config, graph)
        coeffs = tables.coeffs
        assert coeffs.shape == (len(modes), graph.size, graph.size)
        assert coeffs.dtype == np.float64 and coeffs.flags.c_contiguous
        assert not coeffs.flags.writeable
        for lo, hi in graph.blocks:
            corner = coeffs[:len(modes) - 1, lo:hi, :lo]
            assert not corner.flags.writeable and corner.strides[-1] == corner.itemsize
        history = graph.closure - np.eye(graph.size, dtype=np.int8)
        assert np.array_equal(coeffs[-1], history.T)
        assert np.array_equal(coeffs[0], graph.adjacency.T)
        assert not hasattr(tables, "oracle_coeffs")
        base = dataclasses.replace(config, modes=("naive", "removal", "idealized"))
        assert simulate.run_tables(base, graph).coeffs.shape == (3, graph.size, graph.size)


def uncached_study(config, graph):
    """The runs of monte_carlo(config, graph), each with tables of its own."""
    return [run_once(config, graph, graphmod.seed_rng(config.seed, r))
            for r in range(1, config.runs + 1)]


def shared_study(config, graph, tables, clobber=False):
    """The runs of monte_carlo(config, graph) over the given tables, as
    monte_carlo steps them.  With clobber, the arrays of each trace
    run_once returns are overwritten before the next run; a copy is kept."""
    traces = []
    for r in range(1, config.runs + 1):
        trace = run_once(config, graph, graphmod.seed_rng(config.seed, r), tables=tables)
        if clobber:
            kept = dataclasses.replace(trace, **{n: getattr(trace, n).copy() for n in TRACE_ARRAYS})
            for name in TRACE_ARRAYS:
                getattr(trace, name)[...] = -7
            trace = kept
        traces.append(trace)
    return traces


def assert_same_runs(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.true_state == e.true_state
        for name in TRACE_ARRAYS:
            assert np.array_equal(getattr(g, name), getattr(e, name)), name


def step_contents(cache):
    """(keys, arrays) held by the steps of a StudyCache."""
    return [key for _, key in cache.steps], [arr for inputs in cache.inputs for arr in inputs]


@pytest.fixture
def built_tables(monkeypatch):
    """The RunTables run_tables builds during the test, in order."""
    built = []
    build = simulate.run_tables

    def recorded(config, graph):
        built.append(build(config, graph))
        return built[-1]

    monkeypatch.setattr(simulate, "run_tables", recorded)
    return built


class TestStepTrie:
    """Block steps reused across the runs of a study, through the steps of
    its StudyCache, give the uncached runs bit for bit."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_study_equals_uncached_runs(self, name, built_tables):
        base = cli.build_scenario(cli.load_config_file(name), runs=20)
        graph = build_graph(base)
        hits = 0
        for modes in (ALL_MODES, base.modes):
            for rule in ("mean", "map"):
                config = dataclasses.replace(base, modes=modes, estimate_rule=rule)
                expected = uncached_study(config, graph)
                metrics = monte_carlo(config, graph=graph)
                hits += built_tables[-1].cache.hits
                for k, mode in enumerate(modes):
                    assert np.array_equal(metrics.actions[mode],
                                          [t.actions[k] for t in expected])
                    assert np.array_equal(metrics.estimates[mode],
                                          [t.estimates[k] for t in expected])
                # every run's beliefs, through the same calls monte_carlo makes
                tables = simulate.run_tables(config, graph)
                assert_same_runs(shared_study(config, graph, tables), expected)
                assert tables.cache.hits == built_tables[-2].cache.hits
        if name == "paper_chain41":
            assert hits > 0

    def test_study_that_raises_in_a_later_run(self):
        # On a complete DAG of 1018 nodes, naive evidence leaves the float64
        # range at node 1017 in some runs of this model and past node 1018 in
        # others.  The runs before the failing one fill the cache's steps, and
        # one of them hits them.
        config = scenario(default_model(6, 6, 5), modes=ALL_MODES, true_state="random",
                          runs=40)
        graph = complete_dag(1018)
        tables = simulate.run_tables(config, graph)
        for r in range(1, config.runs + 1):
            try:
                reference = run_once(config, graph, graphmod.seed_rng(config.seed, r))
            except ValueError as exc:
                expected = exc
                break
            assert_same_runs([run_once(config, graph, graphmod.seed_rng(config.seed, r),
                                       tables=tables)], [reference])
        assert r > 2 and tables.cache.hits > 0
        assert str(expected) == "node 1017: fused evidence left the float64 range"
        with pytest.raises(ValueError) as got:
            run_once(config, graph, graphmod.seed_rng(config.seed, r), tables=tables)
        assert str(got.value) == str(expected)
        with pytest.raises(ValueError) as got:
            monte_carlo(config, graph=graph)
        assert str(got.value) == str(expected)

    def test_run_that_raises_leaves_a_table_id_for_every_row(self):
        # Run 7 of this study raises at node 1017, after its earlier blocks
        # added rows and inputs to the cache.  Every row it added has a table
        # id, and run 8 over the same tables is the uncached run.
        config = scenario(default_model(6, 6, 5), modes=ALL_MODES, true_state="random",
                          runs=8)
        graph = complete_dag(1018)
        tables = simulate.run_tables(config, graph)
        for r in range(1, 7):
            run_once(config, graph, graphmod.seed_rng(config.seed, r), tables=tables)
        added = len(tables.cache.ids)
        with pytest.raises(ValueError, match="node 1017: fused evidence"):
            run_once(config, graph, graphmod.seed_rng(config.seed, 7), tables=tables)
        cache = tables.cache
        ids = np.array(list(cache.ids.values()))
        assert len(ids) > added and 0 <= ids.min() and ids.max() < len(cache.tables)
        for _, pub, held in cache.inputs:
            assert np.array_equal(cache.tables[held], action_table(pub, config.model))
        assert_same_runs([run_once(config, graph, graphmod.seed_rng(config.seed, 8),
                                   tables=tables)],
                         [run_once(config, graph, graphmod.seed_rng(config.seed, 8))])

    def test_tables_for_another_config_raise(self):
        config = cli.build_scenario(cli.load_config_file("paper_chain41"), runs=2)
        graph = build_graph(config)
        tables = simulate.run_tables(config, graph)
        # the modes in another order, force set, or an equal copy: each is another config
        for other in (dataclasses.replace(config, modes=config.modes[::-1]),
                      dataclasses.replace(config, force=True), dataclasses.replace(config)):
            with pytest.raises(ValueError, match="built for another config or graph"):
                run_once(other, graph, np.random.default_rng(0), tables=tables)
        assert tables.cache.hits == tables.cache.step_bytes == 0

    def test_tables_for_another_graph_raise(self):
        config = cli.build_scenario(cli.load_config_file("paper_chain41"), runs=2)
        tables = simulate.run_tables(config, build_graph(config))
        with pytest.raises(ValueError, match="built for another config or graph"):
            run_once(config, build_graph(config), np.random.default_rng(0), tables=tables)
        assert tables.cache.hits == tables.cache.step_bytes == 0

    def test_budget_counts_keys_and_held_inputs(self, built_tables):
        # complete_delay's blocks of six nodes fill the budget within 45 runs
        config = cli.build_scenario(cli.load_config_file("paper_complete"), runs=50)
        monte_carlo(config)
        cache = built_tables[-1].cache
        keys, arrays = step_contents(cache)
        # one state per key, each holding (evidence, pub, ids)
        assert len(keys) == len(cache.inputs) and len(arrays) == 3 * len(keys)
        assert cache.step_bytes == sum(map(len, keys)) + sum(a.nbytes for a in arrays)
        # one more block's key and inputs (six nodes, three modes) would not fit
        one_block = 3 * 6 * 8 * (1 + 20 + 20 + 1)
        assert simulate.CACHE_BUDGET - one_block < cache.step_bytes <= simulate.CACHE_BUDGET
        assert arrays and not any(a.flags.writeable for a in arrays)
        assert all(a.base is None for a in arrays)

    # learning.fuse calls of each bundled study: one per block whose inputs
    # the cache does not hold
    @pytest.mark.parametrize("name, fuses", [("paper_chain41", 1651), ("paper_complete", 187),
                                             ("paper_star", 288), ("paper_random4", 279)])
    def test_bundled_study_reuses_block_inputs(self, name, fuses, built_tables, monkeypatch):
        calls = []
        fuse = learning.fuse

        def counted(*args, **kwargs):
            calls.append(1)
            return fuse(*args, **kwargs)

        monkeypatch.setattr(learning, "fuse", counted)
        config = cli.build_scenario(cli.load_config_file(name))
        assert config.runs == 100
        monte_carlo(config)
        assert built_tables[-1].cache.hits > 0 and len(calls) == fuses

    # action_table rows and cache hits of each bundled study in all four
    # modes.  obs_oracle's rows take one action_table call per run, of all N
    # rows, and stay out of the cache, so every study hits it as often as in
    # its own three modes, and none clears it
    @pytest.mark.parametrize("name, rows, hits", [
        ("paper_chain41", 6015, 2449), ("paper_complete", 2816, 113), ("paper_star", 2963, 112),
        ("paper_random4", 2587, 121)])
    def test_bundled_study_in_all_modes(self, name, rows, hits, built_tables, monkeypatch):
        counted, cleared = [], []
        table, clear = learning.action_table, simulate.StudyCache.clear

        def counted_table(pub, model):
            counted.append(pub.size // pub.shape[-1])
            return table(pub, model)

        def counted_clear(cache):
            cleared.append(1)
            clear(cache)

        monkeypatch.setattr(learning, "action_table", counted_table)
        monkeypatch.setattr(simulate.StudyCache, "clear", counted_clear)
        config = cli.build_scenario(cli.load_config_file(name))
        assert config.runs == 100
        monte_carlo(dataclasses.replace(config, modes=ALL_MODES))
        assert sum(counted) == rows and built_tables[-1].cache.hits == hits
        assert len(cleared) == 1  # the cache's first, from __init__
        monte_carlo(config)
        assert built_tables[-1].cache.hits == hits

    def test_each_study_starts_from_an_empty_cache(self, built_tables):
        config = cli.build_scenario(cli.load_config_file("paper_chain41"), runs=10)
        first, second = monte_carlo(config), monte_carlo(config)
        assert len(built_tables) == 2 and built_tables[0].cache is not built_tables[1].cache
        assert built_tables[0].cache.hits == built_tables[1].cache.hits > 0
        for mode in config.modes:
            assert np.array_equal(first.estimates[mode], second.estimates[mode])

    def test_writing_into_a_trace_leaves_later_runs_unchanged(self):
        config = cli.build_scenario(cli.load_config_file("paper_chain41"), runs=15)
        graph = build_graph(config)
        tables = simulate.run_tables(config, graph)
        assert_same_runs(shared_study(config, graph, tables, clobber=True),
                         uncached_study(config, graph))
        assert tables.cache.hits > 0


def row_contents(cache):
    """(keys, arrays) held by the rows of a StudyCache."""
    return [*cache.ids, *cache.table_index], [cache.tables, cache.nus]


def assert_rows_counted(cache):
    keys, arrays = row_contents(cache)
    assert cache.row_bytes == sum(map(len, keys)) + sum(a.nbytes for a in arrays)
    assert not any(a.flags.writeable for a in arrays)


class TestRowMemo:
    """Action tables and likelihoods served by the rows of a StudyCache are
    the direct calls' bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_served_rows_equal_direct_calls(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        default = default_model()
        # with the costs scaled down, subnormal normalisers decide actions
        small = StateModel(prior=default.prior, likelihood=default.likelihood,
                           cost=default.cost * 1e-3)
        model = data.draw(st.sampled_from([default, small]), label="model")
        pool = []
        for _ in range(data.draw(st.integers(1, 12), label="distinct rows")):
            if rng.random() < 0.5:
                # e_1 plus multiples of 5e-324: pub . B[:, j] is subnormal for some j
                pub = np.eye(model.num_states)[0]
                pub[17:20] = rng.integers(0, 200, size=3) * 5e-324
            else:
                pub = normalize_log(rng.uniform(-60, 0, model.num_states))
            pool.append(pub)
        cache, given = simulate.StudyCache(model), set()
        for _ in range(data.draw(st.integers(1, 10), label="stacks")):
            shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
            # rows drawn from the pool repeat within a stack and across stacks
            picks = rng.integers(len(pool), size=shape)
            pub = np.stack([pool[i] for i in picks.flat]).reshape(*shape, -1)
            given.update(pool[i].tobytes() for i in picks.flat)
            ids = cache.table_ids(pub)
            assert ids.shape == shape and (ids >= 0).all()
            acts, expected = cache.tables[ids], action_table(pub, model)
            assert acts.dtype == expected.dtype and np.array_equal(acts, expected)
            z = rng.integers(model.num_obs, size=(*shape, 1))
            a = np.take_along_axis(acts, z, axis=-1)[..., 0]
            own = cache.nus[ids, a - 1]
            expected = [action_likelihood(row, int(ak), model)
                        for row, ak in zip(pub.reshape(-1, pub.shape[-1]), a.flat)]
            assert own.tobytes() == np.stack(expected).tobytes()
        assert set(cache.ids) == given  # every row is kept
        assert_rows_counted(cache)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_small_budget_study_equals_uncached_runs(self, name, built_tables, monkeypatch):
        budget = 4096
        monkeypatch.setattr(simulate, "CACHE_BUDGET", budget)
        cleared = []  # the rows' bytes before each clear
        clear, run = simulate.StudyCache.clear, simulate.run_once

        def counted_clear(cache):
            if hasattr(cache, "row_bytes"):  # not the cache's first, from __init__
                cleared.append(cache.row_bytes)
            clear(cache)
            assert_rows_counted(cache)
            assert cache.row_bytes == cache.step_bytes == 0 and not cache.ids
            assert not cache.steps and not cache.inputs

        def checked_run(config, graph, rng, tables):
            cache, clears = tables.cache, len(cleared)
            start = cache.row_bytes
            trace = run(config, graph, rng, tables=tables)
            if len(cleared) > clears:
                assert len(cleared) == clears + 1 and cleared[-1] == start > budget
                start = 0
            assert start <= budget
            # each of the run's rows adds at most its key, a table with its
            # key, and the table's likelihoods
            row = trace.public[0, 0].nbytes + 2 * cache.tables[0].nbytes + cache.nus[0].nbytes
            assert cache.row_bytes <= budget + trace.actions.size * row
            assert_rows_counted(cache)
            return trace

        monkeypatch.setattr(simulate.StudyCache, "clear", counted_clear)
        monkeypatch.setattr(simulate, "run_once", checked_run)
        config = cli.build_scenario(cli.load_config_file(name), runs=30)
        config = dataclasses.replace(config, modes=ALL_MODES)
        graph = build_graph(config)
        expected = [run(config, graph, graphmod.seed_rng(config.seed, r))
                    for r in range(1, config.runs + 1)]
        metrics = monte_carlo(config, graph=graph)
        for k, mode in enumerate(config.modes):
            assert np.array_equal(metrics.actions[mode], [t.actions[k] for t in expected])
            assert np.array_equal(metrics.estimates[mode], [t.estimates[k] for t in expected])
        assert cleared and built_tables[-1].cache.step_bytes <= budget

    def test_arrays_are_read_only(self, built_tables):
        monte_carlo(cli.build_scenario(cli.load_config_file("paper_star"), runs=10))
        cache = built_tables[-1].cache
        assert cache.ids and cache.table_index and cache.nus.size
        for arr in row_contents(cache)[1]:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_paper_star_work(self, monkeypatch):
        # rows given to action_table and action_likelihoods, and calls of
        # action_likelihood, in the bundled study; without cached rows they
        # were 5346 table rows and 396 likelihood calls, and with a cache that
        # computed a missed row once per occurrence and likelihoods per (table, action),
        # 1294 table rows and 33 likelihood calls
        counts = {"table rows": 0, "likelihood tables": 0, "likelihood calls": 0}
        table, likelihoods = learning.action_table, learning.action_likelihoods
        likelihood = learning.action_likelihood

        def counted_table(pub, model):
            counts["table rows"] += pub.size // pub.shape[-1]
            return table(pub, model)

        def counted_likelihoods(tables, model):
            counts["likelihood tables"] += tables.size // tables.shape[-1]
            return likelihoods(tables, model)

        def counted_likelihood(*args, **kwargs):
            counts["likelihood calls"] += 1
            return likelihood(*args, **kwargs)

        monkeypatch.setattr(learning, "action_table", counted_table)
        monkeypatch.setattr(learning, "action_likelihoods", counted_likelihoods)
        monkeypatch.setattr(learning, "action_likelihood", counted_likelihood)
        config = cli.build_scenario(cli.load_config_file("paper_star"))
        assert config.runs == 100
        monte_carlo(config)
        # one table row per distinct public-belief row, one likelihood table
        # per distinct action table, and every row has a table id
        assert counts == {"table rows": 563, "likelihood tables": 28, "likelihood calls": 0}


class TestWeightsSolvedOnce:
    # seed 0 of complete 6x4 violates the constraint, so augmenting it adds edges
    TOPOLOGY = TopologySpec(kind="complete_delay", agents=6, epochs=4)

    def test_report_augment_and_node_weights(self, weight_solves):
        g = graphmod.generate_topology(self.TOPOLOGY, graphmod.topology_rng(0))
        report = graphmod.constraint_report(g)
        fixed = augment_for_constraint(g)
        weights = simulate.node_weights(fixed)
        assert report and fixed is not g
        assert fixed.weights is g.weights
        assert all(np.array_equal(w, g.weights[:n, n]) for n, w in enumerate(weights))
        assert weight_solves == [g]

    def test_augmented_study(self, model, weight_solves):
        config = scenario(model, topology=self.TOPOLOGY, runs=2)
        fixed = augment_for_constraint(build_graph(config))
        monte_carlo(config, graph=fixed)
        assert len(weight_solves) == 1


class TestMonteCarlo:
    def test_runs_one_wraps_run_once(self, model):
        cfg = scenario(model, topology=TopologySpec(kind="chain41"), runs=1)
        mt = monte_carlo(cfg)
        assert mt.num_nodes == 41
        ss = np.random.SeedSequence(cfg.seed)
        children = ss.spawn(2)
        graph = generate_topology(cfg.topology, np.random.default_rng(children[0]))
        trace = run_once(cfg, graph, np.random.default_rng(children[1]))
        for m in cfg.modes:
            assert np.allclose(mt.estimates[m][0], trace.estimates[cfg.modes.index(m)])

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

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="float cancellation: removal drifts from idealized by 0.094 "
                              "states where max |w| is 8.3e13")
    def test_removal_equals_idealized_on_a_dense_augmented_graph(self):
        config = cli.build_scenario({
            "topology": {"kind": "complete_delay", "agents": 10, "epochs": 40},
            "modes": ["removal", "idealized"], "runs": 10, "seed": 7})
        graph = augment_for_constraint(build_graph(config))
        metrics = monte_carlo(config, graph=graph)
        gap = np.abs(metrics.estimates["removal"] - metrics.estimates["idealized"]).max()
        assert gap <= 1e-6

    def test_constraint_violation_exit(self, model):
        # most complete_delay realizations violate the constraint
        cfg = scenario(model,
                       topology=TopologySpec(kind="complete_delay", agents=6, epochs=4),
                       seed=0, runs=2)
        with pytest.raises(ConstraintViolationError):
            monte_carlo(cfg)

    def test_study_without_removal_runs_where_weights_leave_int64(self, model):
        # seed 3 of complete 10x60 has a weight beyond int64 (node 596)
        config = scenario(model, topology=TopologySpec(kind="complete_delay", agents=10,
                                                       epochs=60),
                          seed=3, runs=2, modes=("naive", "idealized"))
        metrics = monte_carlo(config)
        assert metrics.constraint is None
        assert metrics.estimates["naive"].shape == (2, 600)
        with pytest.raises(WeightOverflowError, match="node 596"):
            monte_carlo(dataclasses.replace(config, modes=ALL_MODES))

    def test_study_without_removal_keeps_the_constraint_report(self, model):
        config = scenario(model, topology=TopologySpec(kind="complete_delay", agents=6,
                                                       epochs=4),
                          seed=0, runs=2, modes=("naive", "idealized"))
        metrics = monte_carlo(config)
        assert metrics.constraint
        assert metrics.constraint == graphmod.constraint_report(build_graph(config))

    def test_metrics_shapes(self, model, diamond_a):
        cfg = scenario(model, runs=4, modes=("naive", "removal", "idealized"))
        mt = monte_carlo(cfg, graph=diamond_a)
        for m in cfg.modes:
            assert mt.estimates[m].shape == (4, 5)
            assert mt.mean_estimate[m].shape == (5,)
            assert mt.mse[m].shape == (5,)
            assert (mt.mse[m] >= 0).all()
