import ast
import dataclasses
import glob
import hashlib
import importlib.resources
import inspect
import os
import re

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from incestless import CommGraph, TopologySpec, default_model, load_graph, save_graph
from incestless import cli, errors
from incestless import graph as graphmod
from incestless.cli import build_scenario, main
from incestless.simulate import ScenarioConfig, build_graph

from conftest import DIAMOND_A_EDGES, DIAMOND_B_EDGES, ROOT, layered, random_dag, run_python

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
    path = tmp_path / "layered.txt"
    save_graph(layered(5, 34), path)
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

    def test_chain41_digest_read_back_as_paper_chain41(self, runner, tmp_path):
        # chain41 draws nothing, so its file has one digest, also in directories
        # gen-graph makes, and as an explicit topology it is paper_chain41's graph
        outs = tmp_path / "c41.txt", tmp_path / "nested" / "dir" / "c41.txt"
        for out in outs:
            assert runner.invoke(main, ["gen-graph", "chain41", "--out", str(out)]).exit_code == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == (
                "1ddec1132f95a1704ac58fcb6d953e2d6a75cb62d01872e0e0354002eed996c5")
        assert runner.invoke(main, ["closure", str(outs[0])]).exit_code == 0
        cfg = tiny_config(tmp_path, topology={"kind": "explicit", "path": str(outs[0])})
        explicit = runner.invoke(main, ["report-constraint", str(cfg)])
        bundled = runner.invoke(main, ["report-constraint", "paper_chain41"])
        assert (explicit.exit_code, bundled.exit_code, explicit.output) == (0, 0, bundled.output)

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
            g = CommGraph(random_dag(rng, size))
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
            expected = build_graph(build_scenario({"topology": topology}, seed=seed))
            assert (load_graph(out).adjacency == expected.adjacency).all()
            adjacencies.append(expected.adjacency)
        assert (adjacencies[0] != adjacencies[1]).any()

    def test_failed_write_exit_1_no_file(self, runner, tmp_path, full_disk):
        out = tmp_path / "g.txt"
        res = runner.invoke(main, ["gen-graph", "random4", "--agents", "5", "--epochs", "4",
                                   "--seed", "1", "--out", str(out)])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_makes_missing_directories(self, runner, tmp_path):
        outs = tmp_path / "g.txt", tmp_path / "new" / "dir" / "g.txt"
        for out in outs:
            res = runner.invoke(main, ["gen-graph", "random4", "--seed", "3", "--out", str(out)])
            assert res.exit_code == 0, res.output
        assert outs[1].read_bytes() == outs[0].read_bytes()

    def test_over_long_name_leaves_no_directories(self, runner, tmp_path):
        # the file's name is too long to make, after its parents were made
        res = runner.invoke(main, ["gen-graph", "chain41", "--out",
                                   str(tmp_path / "deep" / "er" / ("x" * 300))])
        assert_input_error(res, "File name too long")
        assert not (tmp_path / "deep").exists()

    def test_directory_in_the_way_opens_no_file(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "g.txt"
        out.mkdir()
        opened = []
        monkeypatch.setattr(graphmod, "open", lambda *args, **kwargs: opened.append(args),
                            raising=False)
        res = runner.invoke(main, ["gen-graph", "chain41", "--out", str(out)])
        assert_input_error(res, f"Is a directory: '{out}'")
        assert len(res.stderr.splitlines()) == 1
        assert opened == []
        assert os.listdir(tmp_path) == ["g.txt"] and os.listdir(out) == []

    @pytest.mark.parametrize("leaf", ["", ".", ".."])
    def test_directory_path_exit_1_makes_nothing(self, runner, tmp_path, leaf):
        # a path whose last component is empty, . or .. names a directory
        out = f"{tmp_path / 'newdir'}{os.sep}{leaf}"
        res = runner.invoke(main, ["gen-graph", "chain41", "--out", out])
        assert_input_error(res, f"Is a directory: '{out}'")
        assert len(res.stderr.splitlines()) == 1
        assert os.listdir(tmp_path) == []

    def test_ignores_env_seed(self, runner, tmp_path, monkeypatch):
        outs = [tmp_path / name for name in ("unset.txt", "set.txt")]
        monkeypatch.delenv("INCESTLESS_SEED", raising=False)
        for out in outs:
            res = runner.invoke(main, ["gen-graph", "random4", "--seed", "1", "--out", str(out)])
            assert res.exit_code == 0, res.output
            monkeypatch.setenv("INCESTLESS_SEED", "3")
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_bad_kind(self, runner, tmp_path):
        res = runner.invoke(main, ["gen-graph", "mystery",
                                   "--out", str(tmp_path / "x.txt")])
        assert res.exit_code == 1


class TestClosureCommand:
    def test_diamond_a_weights_and_ok(self, runner, tmp_path):
        path = write_diamond(tmp_path, DIAMOND_A_EDGES, "a.txt")
        res = runner.invoke(main, ["closure", str(path)])
        assert res.exit_code == 0
        assert res.output.splitlines()[-1] == (
            "node 5: t=[1, 1, 1, 1] b=[1, 1, 1, 1] w=[-1, -1, 1, 1] constraint OK")

    def test_diamond_b_violation(self, runner, tmp_path):
        path = write_diamond(tmp_path, DIAMOND_B_EDGES, "b.txt")
        res = runner.invoke(main, ["closure", str(path)])
        assert res.exit_code == 0
        assert res.output.splitlines()[-1] == (
            "node 5: t=[1, 1, 1, 1] b=[1, 0, 1, 1] w=[-1, -1, 1, 1] constraint violation at 2")

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

    def test_non_utf8_file(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"N 3\n1 2\n\xff\n")
        res = runner.invoke(main, ["closure", str(path)])
        assert_input_error(res, f"{path}: 'utf-8' codec can't decode byte 0xff")

    def test_complete_delay_digest_and_first_weight_past_int64(self, runner, tmp_path):
        # 10 x 40 at seed 0 prints the output of known digest (W solved one run
        # of rows per product, bit for bit as one row at a time); the weights of
        # 10 x 60 at seed 3 leave int64, and the error names the first beyond it
        for epochs, seed in (40, 0), (60, 3):
            res = runner.invoke(main, ["gen-graph", "complete_delay", "--agents", "10",
                                       "--epochs", str(epochs), "--seed", str(seed),
                                       "--out", str(tmp_path / f"cd{epochs}.txt")])
            assert res.exit_code == 0
        res = runner.invoke(main, ["closure", str(tmp_path / "cd40.txt")])
        assert res.exit_code == 0 and hashlib.sha256(res.stdout_bytes).hexdigest() == (
            "4acf15753169448084b03c3993500f65722b557623c82cf2e6262621acdd0985")
        res = runner.invoke(main, ["closure", str(tmp_path / "cd60.txt")])
        assert (res.exit_code, res.stdout, res.stderr) == (
            1, "", "error: node 596: weight w_596(20) exceeds the int64 range\n")

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
    ({"floor_zero_likelihood": False}, "floor_zero_likelihood"),
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

    def test_non_utf8_file_raises_config_error(self, tmp_path):
        from incestless import ConfigError

        path = tmp_path / "bad.yaml"
        path.write_bytes(b"runs: 3\n# \xff\n")
        with pytest.raises(ConfigError) as error:
            cli.load_config_file(str(path))
        assert str(error.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


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

    def test_reads_no_environment(self, monkeypatch):
        # the CLI resolves INCESTLESS_SEED; build_scenario keeps the file's seed
        monkeypatch.setenv("INCESTLESS_SEED", "7")
        assert build_scenario({"topology": {"kind": "chain41"}, "seed": 2}).seed == 2
        assert build_scenario({"topology": {"kind": "chain41"}, "seed": 2}, seed=5).seed == 5

    @pytest.mark.parametrize("fields, message", BAD_TOPOLOGIES)
    def test_bad_topology_field_raises_config_error(self, fields, message):
        from incestless import ConfigError

        topology = {"kind": "complete_delay", "agents": 2, "epochs": 3, **fields}
        with pytest.raises(ConfigError, match=message):
            build_scenario({"topology": topology})

    def test_overridden_file_seed_is_still_checked(self):
        from incestless import ConfigError

        with pytest.raises(ConfigError, match="seed must be an integer, got 1.9"):
            build_scenario({"topology": {"kind": "chain41"}, "seed": 1.9}, seed=3)

    def test_defaults_come_from_scenario_config(self):
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

    def test_obs_oracle_rows_stand_alone(self, runner, tmp_path):
        # adding obs_oracle changes no other mode's rows, and obs_oracle alone,
        # a study with no action-driven mode, writes the rows it adds; the
        # four-mode study runs as `python -m incestless.cli`, a fresh process
        # where every RuntimeWarning is an error from the start
        args = ["run", "paper_chain41", "--runs", "5", "--output-dir"]
        res = run_python("-m", "incestless.cli", *args, str(tmp_path / "four"),
                         "--modes", "naive,obs_oracle,removal,idealized")
        assert (res.returncode, res.stderr) == (0, "")
        for name, modes in (("three", []), ("alone", ["--modes", "obs_oracle"])):
            res = runner.invoke(main, [*args, str(tmp_path / name), *modes])
            assert res.exit_code == 0, res.output
        for name in ("actions.csv", "estimates.csv", "mse.csv"):
            header, *rows = (tmp_path / "four" / name).read_bytes().splitlines(keepends=True)
            oracle = [row for row in rows if b",obs_oracle," in row]
            assert (tmp_path / "alone" / name).read_bytes() == b"".join([header, *oracle])
            assert (tmp_path / "three" / name).read_bytes() == b"".join(
                [header, *(row for row in rows if b",obs_oracle," not in row)])

    def test_diamond_violation_exit_2_unless_forced(self, runner, tmp_path):
        # the diamond without the 2 -> 5 edge violates the constraint at node 5
        graph = write_diamond(tmp_path, DIAMOND_B_EDGES, "b.txt")
        cfg = str(tiny_config(tmp_path, topology={"kind": "explicit", "path": str(graph)}))
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", cfg, "--output-dir", str(out)])
        assert res.exit_code == 2 and "use --force" in res.stderr
        assert not out.exists()
        res = runner.invoke(main, ["run", cfg, "--output-dir", str(out), "--force"])
        assert res.exit_code == 0
        assert (out / "constraint.txt").read_text() == "node 5: violation at 2\n"
        assert runner.invoke(main, ["report-constraint", cfg]).exit_code == 2

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

    def test_over_long_output_dir_leaves_no_directories(self, runner, tmp_path):
        # the leaf's name is too long to make, after its parents were made
        cfg = tiny_config(tmp_path, runs=2)
        res = runner.invoke(main, ["run", str(cfg), "--output-dir",
                                   str(tmp_path / "deep" / "er" / ("x" * 300))])
        assert_input_error(res, "File name too long")
        assert not (tmp_path / "deep").exists()

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

        monkeypatch.setattr(graphmod, "open", failing_open, raising=False)
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
        for name in OUTPUT_FILES:
            assert (out2 / name).read_bytes() == (out3 / name).read_bytes()
        assert (out1 / "actions.csv").read_text() != (out2 / "actions.csv").read_text()

    def test_seed_option_wins_over_env_seed(self, runner, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, runs=2)
        outs = [tmp_path / d for d in ("flag", "both")]
        monkeypatch.delenv("INCESTLESS_SEED", raising=False)
        runner.invoke(main, ["run", str(cfg), "--seed", "3", "--output-dir", str(outs[0])])
        monkeypatch.setenv("INCESTLESS_SEED", "99")
        runner.invoke(main, ["run", str(cfg), "--seed", "3", "--output-dir", str(outs[1])])
        for name in OUTPUT_FILES:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_empty_env_seed_runs_with_the_file_seed(self, runner, tmp_path, monkeypatch):
        # click counts an empty variable as unset
        cfg = tiny_config(tmp_path, runs=2)
        outs = [tmp_path / d for d in ("unset", "empty")]
        monkeypatch.delenv("INCESTLESS_SEED", raising=False)
        runner.invoke(main, ["run", str(cfg), "--output-dir", str(outs[0])])
        monkeypatch.setenv("INCESTLESS_SEED", "")
        res = runner.invoke(main, ["run", str(cfg), "--output-dir", str(outs[1])])
        assert res.exit_code == 0, res.output
        for name in OUTPUT_FILES:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

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

    def test_env_seed_prints_what_the_seed_option_prints(self, runner, tmp_path, monkeypatch):
        cfg = str(tiny_config(tmp_path, topology={"kind": "complete_delay", "agents": 6,
                                                  "epochs": 4}, seed=0))
        monkeypatch.delenv("INCESTLESS_SEED", raising=False)
        file_seed = runner.invoke(main, ["report-constraint", cfg])
        flag = runner.invoke(main, ["report-constraint", cfg, "--seed", "1"])
        monkeypatch.setenv("INCESTLESS_SEED", "1")
        env = runner.invoke(main, ["report-constraint", cfg])
        assert (env.exit_code, env.output) == (flag.exit_code, flag.output)
        assert env.output != file_seed.output


class TestUsageErrors:
    """A usage error exits 1 with click's message; exit 2 is a constraint violation."""

    @pytest.mark.parametrize("args, message", [
        (["run", "paper_star", "--seed", "abc", "--output-dir", "out"],
         "Invalid value for '--seed'"),
        (["report-constraint", "paper_star", "--seed", "x"], "Invalid value for '--seed'"),
        (["gen-graph", "star_delay", "--agents", "many", "--out", "g.txt"],
         "Invalid value for '--agents'"),
        (["gen-graph", "random4", "--seed", "-1", "--out", "g.txt"],
         "Invalid value for '--seed'"),
        (["closure", "g.txt", "--bogus"], "No such option"),
        (["gen-graph", "chain41", "--out", ""], "Invalid value for '--out'"),
        (["run", "paper_star", "--output-dir", ""], "Invalid value for '--output-dir'"),
    ], ids=["run", "report-constraint", "gen-graph", "gen-graph-seed", "closure",
            "gen-graph-empty-out", "run-empty-output-dir"])
    def test_exit_1_with_clicks_message(self, runner, tmp_path, args, message):
        with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
            res = runner.invoke(main, args)
            assert os.listdir(cwd) == []
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "Usage:" in res.stderr and f"Error: {message}" in res.stderr

    @pytest.mark.parametrize("args", [["run", "paper_star", "--output-dir", "out"],
                                      ["report-constraint", "paper_star"]],
                             ids=["run", "report-constraint"])
    def test_malformed_env_seed_exit_1_naming_it(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.setenv("INCESTLESS_SEED", "abc")
        with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
            res = runner.invoke(main, args)
            assert os.listdir(cwd) == []
        assert res.exit_code == 1
        assert res.stdout == ""
        assert ("Error: Invalid value for '--seed' (env var: 'INCESTLESS_SEED'): "
                "'abc' is not a valid integer.") in res.stderr

    def test_help_shows_the_seed_variable(self, runner):
        for command in ("run", "report-constraint"):
            assert "[env var: INCESTLESS_SEED]" in runner.invoke(main, [command, "--help"]).output
        assert "INCESTLESS_SEED" not in runner.invoke(main, ["gen-graph", "--help"]).output


def _readme() -> str:
    with open(os.path.join(ROOT, "README.md")) as f:
        return f.read()


def _private_names() -> set[str]:
    """Every _-prefixed, non-dunder name a module under src/incestless defines."""
    names = set()
    for path in glob.glob(os.path.join(ROOT, "src", "incestless", "*.py")):
        with open(path) as f:
            for node in ast.walk(ast.parse(f.read())):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    names.add(node.id)
    return {name for name in names if re.fullmatch(r"_(?!_)\w+", name)}


def test_readme_names_every_config_key_and_option(runner):
    # in a code span or block: every config key, model key, CLI option and
    # IncestlessError type; in the exit-code section, every exit code and --force
    readme = _readme()
    code = "".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))
    names = [f.name for cls in (ScenarioConfig, TopologySpec) for f in dataclasses.fields(cls)]
    names += inspect.signature(default_model).parameters
    for command in [[], *([name] for name in main.commands)]:
        names += re.findall(r"--[a-z][a-z-]*", runner.invoke(main, [*command, "--help"]).output)
    names += [name for name, obj in vars(errors).items()
              if isinstance(obj, type) and issubclass(obj, errors.IncestlessError)]
    assert [name for name in names if not re.search(rf"(?<![\w-]){name}(?![\w-])", code)] == []
    exit_codes = re.search(r"^### Exit codes$(.*?)^#", readme, re.S | re.M).group(1)
    assert {"0", "1", "2", "--force"} <= set(re.findall(r"`([^`\n]+)`", exit_codes))
    # and no private name of the package, which the docstrings alone describe
    assert sorted(name for name in _private_names()
                  if re.search(rf"(?<!\w){name}(?!\w)", readme)) == []


def test_readme_python_blocks_show_what_their_comments_say():
    # each block runs in a fresh namespace; an expression statement followed
    # by a comment must have the comment as its repr
    shown = {}
    for block in re.findall(r"```python\n(.*?)```", _readme(), re.S):
        namespace, lines = {}, block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
            if comment.startswith("#"):
                assert repr(value) == comment[1:].strip()
                shown[ast.get_source_segment(block, stmt.value)] = value
    assert shown["compute_weights(g, 5)"].tolist() == [-1, -1, 1, 1]
