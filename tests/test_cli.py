import dataclasses
import hashlib
import importlib.resources
import os

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from incestless import CommGraph, graph_from_edges, load_graph, reindex, save_graph
from incestless import cli
from incestless.cli import build_scenario, main
from incestless.simulate import ScenarioConfig, build_graph

from conftest import DIAMOND_A_EDGES, DIAMOND_B_EDGES, random_dag

# SHA-256 of `incestless run <scenario>` at each bundled seed, the digests in
# bench/golden.json; the outputs must stay byte-identical
_CONSTRAINT_OK = "59d9342d2604ad81c8e694a5f2b667f0482fc454eefab9eb9eef459aaa18116f"
BUNDLED_DIGESTS = {
    "paper_chain41": {
        "actions.csv": "347baff2a732a2dc6c475090486be29b4b43e555085d0ef6bb2bbc93eaedd028",
        "estimates.csv": "4431b043e610af3ace037c979207f244dfefa9be6422a0ececd77f1ee48d7150",
        "mse.csv": "e036fbc30f3ba1d920c72599390ae5b41a8efff532fc84b3b7b42c26bb68e826",
        "constraint.txt": _CONSTRAINT_OK,
    },
    "paper_complete": {
        "actions.csv": "3ab45dd9a530895a2a6c1c3fb2944d6ef2aee9b1784ef0595d43805eea572a85",
        "estimates.csv": "a970369573e5026a1b2848884dbeadadafff3800db13292dc8a70d253cca793f",
        "mse.csv": "5f47681b917a14f57958c8f3ec6e814fa33725168c21a9a12e466b35d046f70d",
        "constraint.txt": _CONSTRAINT_OK,
    },
    "paper_star": {
        "actions.csv": "256ec21d9bc0e37113f4c7b7378097efa9c83e5fa478350728cf039a397cca6f",
        "estimates.csv": "0695e3818f42cbc01e152e6acf05bbbfa486130e9b775fab9caff1e01fb8a7e8",
        "mse.csv": "cccf6ef4bf6a4027de9890bfae077814bbad0bf5ab62ecd946140b4eb54a1631",
        "constraint.txt": _CONSTRAINT_OK,
    },
    "paper_random4": {
        "actions.csv": "e53019f14802920cd8dce0a04703cb025826827c38bf49872ae2b015399490d7",
        "estimates.csv": "cac4fbd33b051871228d4655d490b335e2ff437ce14290f3cb16146ff54a445f",
        "mse.csv": "5c270b8c28bb5232d89e640fbe79e6c36bacc16476ede46a5fc655afc0c84459",
        "constraint.txt": _CONSTRAINT_OK,
    },
}
OUTPUT_FILES = ("actions.csv", "estimates.csv", "mse.csv", "constraint.txt")


@pytest.fixture
def runner():
    return CliRunner()


def write_diamond(tmp_path, edges, name):
    path = tmp_path / name
    lines = ["N 5"] + [f"{i} {j}" for i, j in edges]
    path.write_text("\n".join(lines) + "\n")
    return path


def overflow_graph_file(tmp_path):
    """5 agents x 34 layers, every node linked to the whole next layer: the
    true weights of the last nodes reach 2^64, beyond int64."""
    agents, layers = 5, 34
    g = graph_from_edges(agents * layers, [
        (reindex(s, k, agents), reindex(s2, k + 1, agents))
        for k in range(1, layers)
        for s in range(1, agents + 1)
        for s2 in range(1, agents + 1)
    ])
    path = tmp_path / "layered.txt"
    save_graph(g, path)
    return path


def tiny_config(tmp_path, **overrides):
    cfg = {
        "topology": {"kind": "chain41"},
        "model": {"states": 20, "actions": 10},
        "true_state": 10,
        "modes": ["naive", "removal", "idealized"],
        "runs": 3,
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def assert_input_error(res, message):
    """Exit 1 with a one-line error on stderr, not an uncaught exception."""
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and message in res.stderr


def missing_graph_config(tmp_path):
    return tiny_config(tmp_path, topology={"kind": "explicit",
                                           "path": str(tmp_path / "no_such_graph.txt")})


class TestGenGraph:
    def test_chain41_header(self, runner, tmp_path):
        out = tmp_path / "g.txt"
        res = runner.invoke(main, ["gen-graph", "chain41", "--out", str(out)])
        assert res.exit_code == 0
        assert out.read_text().splitlines()[0] == "N 41"

    def test_star_24_nodes(self, runner, tmp_path):
        out = tmp_path / "star.txt"
        res = runner.invoke(main, ["gen-graph", "star_delay", "--agents", "6",
                                   "--epochs", "4", "--out", str(out)])
        assert res.exit_code == 0
        assert load_graph(out).size == 24

    def test_round_trip_random_graphs(self, tmp_path):
        rng = np.random.default_rng(31)
        for i in range(100):
            size = int(rng.integers(1, 25))
            g = CommGraph(random_dag(rng, size), num_agents=size, num_epochs=1)
            p = tmp_path / f"g{i}.txt"
            save_graph(g, p)
            assert (load_graph(p).adjacency == g.adjacency).all()

    def test_seed_matches_run_graph(self, runner, tmp_path):
        # gen-graph --seed s writes the graph that run and report-constraint
        # build for seed s
        topology = {"kind": "complete_delay", "agents": 4, "epochs": 3}
        adjacencies = []
        for seed in (3, 11):
            out = tmp_path / f"g{seed}.txt"
            res = runner.invoke(main, ["gen-graph", "complete_delay", "--seed", str(seed),
                                       "--agents", "4", "--epochs", "3", "--out", str(out)])
            assert res.exit_code == 0, res.output
            expected = build_graph(build_scenario({"topology": topology}, seed_override=seed))
            assert (load_graph(out).adjacency == expected.adjacency).all()
            adjacencies.append(expected.adjacency)
        assert (adjacencies[0] != adjacencies[1]).any()

    def test_bad_kind(self, runner, tmp_path):
        res = runner.invoke(main, ["gen-graph", "mystery",
                                   "--out", str(tmp_path / "x.txt")])
        assert res.exit_code == 1


class TestClosureCommand:
    def test_diamond_a_weights_and_ok(self, runner, tmp_path):
        path = write_diamond(tmp_path, DIAMOND_A_EDGES, "a.txt")
        res = runner.invoke(main, ["closure", str(path)])
        assert res.exit_code == 0
        line5 = [ln for ln in res.output.splitlines() if ln.startswith("node 5:")][0]
        assert "w=[-1, -1, 1, 1]" in line5
        assert "constraint OK" in line5

    def test_diamond_b_violation(self, runner, tmp_path):
        path = write_diamond(tmp_path, DIAMOND_B_EDGES, "b.txt")
        res = runner.invoke(main, ["closure", str(path)])
        assert res.exit_code == 0
        line5 = [ln for ln in res.output.splitlines() if ln.startswith("node 5:")][0]
        assert "violation at 2" in line5

    def test_empty_graph_identity_closure(self, runner, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("N 3\n")
        res = runner.invoke(main, ["closure", str(path)])
        assert res.exit_code == 0
        assert res.output.splitlines()[1:4] == ["1 0 0", "0 1 0", "0 0 1"]

    @pytest.mark.parametrize("text, line", [
        ("N 3\n3 1\n", "3->1"),
        ("N 3\n1 x\n", "'1 x'"),
        ("N -3\n", "'N -3'"),
        ("N 3 7\n1 2\n", "'N 3 7'"),
    ])
    def test_malformed_file(self, runner, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        res = runner.invoke(main, ["closure", str(path)])
        assert_input_error(res, f"{path}: ")
        assert line in res.stderr

    def test_weight_overflow_exit_1(self, runner, tmp_path):
        res = runner.invoke(main, ["closure", str(overflow_graph_file(tmp_path))])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "exceeds the int64 range" in res.stderr
        assert "Traceback" not in res.output


BAD_TOPOLOGIES = [
    ({"agents": 2.5}, "agents must be an integer"),
    ({"agents": "3"}, "agents must be an integer"),
    ({"epochs": True}, "epochs must be an integer"),
    ({"epochs": 4.0}, "epochs must be an integer"),
    ({"delays": 5}, "delays must be a list"),
    ({"delays": "12"}, "delays must be a list"),
    ({"path": 3}, "path must be a string"),
]

# malformed scenario fields, each with the ConfigError message it raises
BAD_FIELDS = [
    ({"topology": 5}, "topology must be a mapping"),
    ({"model": [1]}, "model must be a mapping"),
    ({"runs": "x"}, "runs must be an integer"),
    ({"seed": "x"}, "seed must be an integer"),
    ({"seed": -1}, "seed must be non-negative"),
    ({"model": {"states": "x"}}, "model.states must be an integer"),
    ({"model": {"actions": 0}}, "model.states and model.actions must be positive"),
    ({"model": {"prior": "x"}}, "invalid model"),
    ({"modes": "naive"}, "modes must be a list of mode names"),
    ({"true_state": "x"}, "true_state must be 'random' or an integer"),
    # a number that is not an integer, a quoted number or a bool is not truncated
    ({"runs": 2.5}, "runs must be an integer"),
    ({"runs": "3"}, "runs must be an integer"),
    ({"runs": True}, "runs must be an integer"),
    ({"seed": 1.9}, "seed must be an integer"),
    ({"model": {"states": 20.7}}, "model.states must be an integer"),
    ({"true_state": 2.5}, "true_state must be 'random' or an integer"),
    ({"true_state": True}, "true_state must be 'random' or an integer"),
    # a string is not a flag, whatever it says
    ({"force": "no"}, "force must be true or false"),
    # a removed key is refused as an unknown key: zero likelihoods are always floored
    ({"floor_zero_likelihood": True}, "floor_zero_likelihood"),
    ({"modes": []}, "modes must name at least one mode"),
    ({"modes": ["naive", "naive"]}, "modes must be unique"),
    # paths are checked before any run
    ({"output_dir": 5}, "output_dir must be a non-empty string"),
    ({"output_dir": None}, "output_dir must be a non-empty string"),
    ({"topology": {"kind": "explicit", "path": 3}}, "path must be a string"),
    # every model array is finite and has at least one observation and one action
    ({"model": {"states": 2, "actions": 2, "cost": [[float("nan"), 0], [0, 1]]}},
     "invalid model: cost has a non-finite entry"),
    ({"model": {"states": 2, "cost": [[], []]}},
     "invalid model: a model needs at least one observation and one action"),
    # a size given beside the array it would have sized must agree with it
    ({"model": {"actions": 5, "cost": [[0, 1]] * 20}}, "model.actions is 5, but cost has shape"),
    ({"model": {"kernel_width": 3, "likelihood": np.eye(20).tolist()}},
     "model.kernel_width cannot be given beside model.likelihood"),
    ({"model": {"states": 2, "prior": [0.2, 0.3, 0.5]}}, "model.states is 2, but prior has shape"),
    ({"model": {"prior": [[0.5, 0.5]]}}, "invalid model: prior must be a vector"),
]


class TestLoadConfigFile:
    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", list(BUNDLED_DIGESTS))
    def test_bundled_configs_load_alike_under_both_loaders(self, name, tmp_path):
        text = (importlib.resources.files("incestless") / "configs" / f"{name}.yaml").read_text()
        pure = yaml.load(text, Loader=yaml.SafeLoader)
        assert yaml.load(text, Loader=yaml.CSafeLoader) == pure
        assert cli.load_config_file(name) == pure
        path = tmp_path / f"{name}.yaml"
        path.write_text(text)
        assert cli.load_config_file(str(path)) == pure

    def test_uses_libyaml_where_pyyaml_has_it(self):
        assert cli._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class TestBuildScenario:
    @pytest.mark.parametrize("fields, message", BAD_FIELDS)
    def test_malformed_field_raises_config_error(self, fields, message):
        from incestless import ConfigError

        with pytest.raises(ConfigError, match=message):
            build_scenario({"topology": {"kind": "chain41"}, **fields})

    @pytest.mark.parametrize("states, message", [
        (2.5, "model.states must be an integer, got 2.5"),
        (True, "model.states must be an integer, got True"),
        (0, "model.states and model.actions must be positive"),
    ])
    def test_default_model_raises_the_cli_error(self, states, message):
        from incestless import ConfigError, default_model

        with pytest.raises(ConfigError) as cli_error:
            build_scenario({"topology": {"kind": "chain41"}, "model": {"states": states}})
        with pytest.raises(ConfigError) as library_error:
            default_model(states)
        assert str(library_error.value) == str(cli_error.value) == message

    def test_malformed_env_seed_raises_config_error(self, monkeypatch):
        from incestless import ConfigError

        monkeypatch.setenv("INCESTLESS_SEED", "abc")
        with pytest.raises(ConfigError, match="INCESTLESS_SEED must be an integer"):
            build_scenario({"topology": {"kind": "chain41"}})

    @pytest.mark.parametrize("fields, message", BAD_TOPOLOGIES)
    def test_bad_topology_field_raises_config_error(self, fields, message):
        from incestless import ConfigError

        topology = {"kind": "complete_delay", "agents": 2, "epochs": 3, **fields}
        with pytest.raises(ConfigError, match=message):
            build_scenario({"topology": topology})

    @pytest.mark.parametrize("env_seed, seed_override", [(None, 3), ("3", None)])
    def test_overridden_file_seed_is_still_checked(self, monkeypatch, env_seed, seed_override):
        from incestless import ConfigError

        monkeypatch.delenv("INCESTLESS_SEED", raising=False)
        if env_seed is not None:
            monkeypatch.setenv("INCESTLESS_SEED", env_seed)
        with pytest.raises(ConfigError, match="seed must be an integer, got 1.9"):
            build_scenario({"topology": {"kind": "chain41"}, "seed": 1.9},
                           seed_override=seed_override)

    def test_defaults_come_from_scenario_config(self, monkeypatch):
        monkeypatch.delenv("INCESTLESS_SEED", raising=False)
        scenario = build_scenario({"topology": {"kind": "chain41"}})
        for field in dataclasses.fields(ScenarioConfig):
            if field.name not in ("model", "topology"):
                assert getattr(scenario, field.name) == field.default, field.name

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("width", [0, -2])
    def test_kernel_width_below_one_raises_config_error(self, width):
        from incestless import ConfigError

        with pytest.raises(ConfigError, match="kernel width must be at least 1"):
            build_scenario({"topology": {"kind": "chain41"}, "model": {"kernel_width": width}})

    def test_delays_list_becomes_a_tuple(self):
        scenario = build_scenario({"topology": {"kind": "complete_delay", "delays": [1, 3]}})
        assert scenario.topology.delays == (1, 3)


class TestRun:
    def test_bundled_chain41_row_counts(self, runner, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", "paper_chain41", "--runs", "2",
                                   "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        est = (out / "estimates.csv").read_text().splitlines()
        assert est[0] == "node,mode,mean_estimate"
        assert len(est) == 1 + 41 * 3
        mse = (out / "mse.csv").read_text().splitlines()
        assert len(mse) == 1 + 41 * 3
        acts = (out / "actions.csv").read_text().splitlines()
        assert len(acts) == 1 + 41 * 3 * 2

    @pytest.mark.parametrize("modes", [None, ["naive", "obs_oracle", "removal", "idealized"]])
    def test_graph_without_nodes_writes_header_only_csvs(self, runner, tmp_path, modes):
        graph = tmp_path / "empty.txt"
        graph.write_text("N 0\n")
        extra = {} if modes is None else {"modes": modes}
        cfg = tiny_config(tmp_path, topology={"kind": "explicit", "path": str(graph)}, **extra)
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "actions.csv").read_text() == "node,mode,run,action\n"
        assert (out / "estimates.csv").read_text() == "node,mode,mean_estimate\n"
        assert (out / "mse.csv").read_text() == "node,mode,mse\n"

    def test_bundled_star_24_rows_per_mode(self, runner, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", "paper_star", "--runs", "2",
                                   "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        est = (out / "estimates.csv").read_text().splitlines()
        assert len(est) == 1 + 24 * 3

    def test_malformed_config_exit_1_no_outputs(self, runner, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("topology:\n  kind: chain41\nbogus_key: 1\n")
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(bad), "--output-dir", str(out)])
        assert res.exit_code == 1
        assert not out.exists()

    @pytest.mark.parametrize("delays", [[-1], [0], [1.5, 2]])
    def test_bad_delays_exit_1_no_outputs(self, runner, tmp_path, delays):
        cfg = tiny_config(tmp_path, topology={
            "kind": "complete_delay", "agents": 2, "epochs": 3, "delays": delays})
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
        assert_input_error(res, "delays must be positive integers")
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", BAD_TOPOLOGIES)
    def test_bad_topology_field_exit_1_no_outputs(self, runner, tmp_path, fields, message):
        cfg = tiny_config(tmp_path, topology={
            "kind": "complete_delay", "agents": 2, "epochs": 3, **fields})
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
        assert_input_error(res, message)
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", BAD_FIELDS)
    def test_malformed_field_exit_1_no_outputs(self, runner, tmp_path, fields, message):
        cfg = tiny_config(tmp_path, **fields)
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
        assert_input_error(res, message)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seed", "INCESTLESS_SEED"])
    def test_overridden_file_seed_exit_1_no_outputs(self, runner, tmp_path, monkeypatch, flag):
        monkeypatch.delenv("INCESTLESS_SEED", raising=False)
        cfg = tiny_config(tmp_path, seed=1.9)
        out = tmp_path / "out"
        args = ["run", str(cfg), "--output-dir", str(out)]
        if flag == "--seed":
            args += ["--seed", "3"]
        else:
            monkeypatch.setenv("INCESTLESS_SEED", "3")
        assert_input_error(runner.invoke(main, args), "seed must be an integer")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("width", [0, -2])
    def test_kernel_width_below_one_exit_1_no_outputs(self, runner, tmp_path, width):
        cfg = tiny_config(tmp_path, model={"states": 20, "actions": 10, "kernel_width": width})
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
        assert_input_error(res, "kernel width must be at least 1")
        assert len(res.stderr.splitlines()) == 1 and "RuntimeWarning" not in res.stderr
        assert not out.exists()

    def test_model_too_large_to_allocate_exit_1_no_outputs(self, runner, tmp_path):
        # numpy refuses the 10^7 x 10^7 likelihood before allocating it
        cfg = tmp_path / "huge.yaml"
        cfg.write_text("topology: {kind: chain41}\nmodel: {states: 10000000}\n")
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
        assert_input_error(res, "Unable to allocate")
        assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.output
        assert not out.exists()

    def test_config_is_a_directory_exit_1_no_outputs(self, runner, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(tmp_path), "--output-dir", str(out)])
        assert_input_error(res, "Is a directory")
        assert not out.exists()

    def test_missing_graph_file_exit_1_no_outputs(self, runner, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(missing_graph_config(tmp_path)),
                                   "--output-dir", str(out)])
        assert_input_error(res, "no_such_graph.txt")
        assert not out.exists()

    def test_weight_overflow_exit_1_no_outputs(self, runner, tmp_path):
        cfg = tiny_config(tmp_path, topology={
            "kind": "explicit", "path": str(overflow_graph_file(tmp_path))})
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
        assert res.exit_code == 1
        assert "exceeds the int64 range" in res.stderr
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_study_without_removal_runs_where_weights_leave_int64(self, runner, tmp_path):
        # seed 3 of complete 10x60 has a weight beyond int64, which only removal reads
        cfg = tiny_config(tmp_path, topology={"kind": "complete_delay", "agents": 10,
                                              "epochs": 60},
                          seed=3, runs=2, modes=["naive", "idealized"])
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        assert sorted(os.listdir(out)) == sorted(OUTPUT_FILES)
        assert (out / "constraint.txt").read_text() == (
            "constraint not checked: the incest-removal weights leave the int64 range\n")
        assert len((out / "estimates.csv").read_text().splitlines()) == 1 + 600 * 2
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path / "removal"),
                                   "--modes", "naive,removal"])
        assert_input_error(res, "node 596: weight w_596(20) exceeds the int64 range")
        assert not (tmp_path / "removal").exists()

    @pytest.mark.parametrize("modes", ["", ",", "naive,"])
    def test_empty_mode_name_exit_1_no_outputs(self, runner, tmp_path, modes):
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(tiny_config(tmp_path, runs=2)),
                                   "--modes", modes, "--output-dir", str(out)])
        assert_input_error(res, "unknown modes: ['']")
        assert not out.exists()

    @pytest.mark.parametrize("scenario", sorted(BUNDLED_DIGESTS))
    def test_bundled_golden_digests(self, runner, tmp_path, monkeypatch, scenario):
        monkeypatch.delenv("INCESTLESS_SEED", raising=False)
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", scenario, "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in OUTPUT_FILES}
        assert digests == BUNDLED_DIGESTS[scenario]
        assert sorted(os.listdir(out)) == sorted(OUTPUT_FILES)

    def test_unwritable_output_dir_exit_1(self, runner, tmp_path):
        cfg = tiny_config(tmp_path, runs=2)
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        for out in (blocker / "out", blocker):
            res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
            assert res.exit_code == 1
            assert res.stderr.startswith("error: ")
            assert "Traceback" not in res.output
            assert blocker.read_text() == ""

    def test_directory_in_the_way_writes_nothing(self, runner, tmp_path):
        cfg = tiny_config(tmp_path, runs=2)
        out = tmp_path / "out"
        (out / "mse.csv").mkdir(parents=True)
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")
        assert os.listdir(out) == ["mse.csv"]

    @staticmethod
    def run_with_failing_write(runner, tmp_path, monkeypatch, out):
        """Run a tiny config whose third file open fails with ENOSPC."""
        cfg = tiny_config(tmp_path, runs=2)
        opened = []

        def failing_open(path, *args, **kwargs):
            opened.append(path)
            if len(opened) == 3:
                raise OSError(28, "No space left on device")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
        assert res.exit_code == 1
        assert "No space left on device" in res.stderr
        assert len(opened) == 3

    def test_failed_write_leaves_no_outputs(self, runner, tmp_path, monkeypatch):
        # the run created the directory, so it goes with the files
        out = tmp_path / "out"
        self.run_with_failing_write(runner, tmp_path, monkeypatch, out)
        assert not out.exists()
        # and so do the parents it had to create for it
        (tmp_path / "kept").mkdir()
        self.run_with_failing_write(runner, tmp_path, monkeypatch,
                                    tmp_path / "kept" / "new" / "a" / "b")
        assert os.listdir(tmp_path / "kept") == []

    def test_failed_write_keeps_an_existing_directory(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        self.run_with_failing_write(runner, tmp_path, monkeypatch, out)
        assert os.listdir(out) == []

    def test_missing_config_exit_1(self, runner):
        res = runner.invoke(main, ["run", "no_such_config"])
        assert res.exit_code == 1

    def test_constraint_violation_exit_2(self, runner, tmp_path):
        # seed 0 of complete 6x4 violates the constraint
        cfg = tiny_config(
            tmp_path,
            topology={"kind": "complete_delay", "agents": 6, "epochs": 4},
            seed=0,
        )
        res = runner.invoke(main, ["run", str(cfg),
                                   "--output-dir", str(tmp_path / "out")])
        assert res.exit_code == 2

    def test_force_overrides_violation(self, runner, tmp_path):
        cfg = tiny_config(
            tmp_path,
            topology={"kind": "complete_delay", "agents": 6, "epochs": 4},
            seed=0,
        )
        res = runner.invoke(main, ["run", str(cfg), "--force",
                                   "--output-dir", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        constraint = (tmp_path / "out" / "constraint.txt").read_text()
        assert "violation" in constraint

    def test_env_seed_override(self, runner, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, runs=2)
        out1, out2, out3 = (tmp_path / d for d in ("o1", "o2", "o3"))
        runner.invoke(main, ["run", str(cfg), "--output-dir", str(out1)])
        monkeypatch.setenv("INCESTLESS_SEED", "99")
        runner.invoke(main, ["run", str(cfg), "--output-dir", str(out2)])
        monkeypatch.delenv("INCESTLESS_SEED")
        runner.invoke(main, ["run", str(cfg), "--seed", "99",
                             "--output-dir", str(out3)])
        assert (out2 / "actions.csv").read_text() == (out3 / "actions.csv").read_text()
        assert (out1 / "actions.csv").read_text() != (out2 / "actions.csv").read_text()

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg = tiny_config(tmp_path, runs=3)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
            assert res.exit_code == 0
        for name in ("actions.csv", "estimates.csv", "mse.csv", "constraint.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestReportConstraint:
    def test_clean_graph(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        res = runner.invoke(main, ["report-constraint", str(cfg)])
        assert res.exit_code == 0
        assert "violation" not in res.output
        assert "node 41: satisfied" in res.output

    def test_violating_graph_exit_2(self, runner, tmp_path):
        cfg = tiny_config(
            tmp_path,
            topology={"kind": "complete_delay", "agents": 6, "epochs": 4},
            seed=0,
        )
        res = runner.invoke(main, ["report-constraint", str(cfg)])
        assert res.exit_code == 2
        assert "violation" in res.output

    def test_weight_overflow_exit_1(self, runner, tmp_path):
        cfg = tiny_config(tmp_path, topology={
            "kind": "explicit", "path": str(overflow_graph_file(tmp_path))})
        res = runner.invoke(main, ["report-constraint", str(cfg)])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "exceeds the int64 range" in res.stderr

    def test_config_is_a_directory_exit_1(self, runner, tmp_path):
        res = runner.invoke(main, ["report-constraint", str(tmp_path)])
        assert_input_error(res, "Is a directory")

    def test_missing_graph_file_exit_1(self, runner, tmp_path):
        res = runner.invoke(main, ["report-constraint", str(missing_graph_config(tmp_path))])
        assert_input_error(res, "no_such_graph.txt")


class TestUsageErrors:
    """A usage error exits 1 with click's message; exit 2 is a constraint violation."""

    @pytest.mark.parametrize("args, message", [
        (["run", "paper_star", "--seed", "abc", "--output-dir", "out"],
         "Invalid value for '--seed'"),
        (["report-constraint", "paper_star", "--seed", "x"], "Invalid value for '--seed'"),
        (["gen-graph", "star_delay", "--agents", "many", "--out", "g.txt"],
         "Invalid value for '--agents'"),
        (["closure", "g.txt", "--bogus"], "No such option"),
    ], ids=["run", "report-constraint", "gen-graph", "closure"])
    def test_exit_1_with_clicks_message(self, runner, tmp_path, args, message):
        with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
            res = runner.invoke(main, args)
            assert os.listdir(cwd) == []
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "Usage:" in res.stderr and f"Error: {message}" in res.stderr
