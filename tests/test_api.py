"""The package's public names and the graph's fields, so that adding or
removing one is a one-line diff, and how the package's types compare."""

import ast
import dataclasses
import pathlib
import sys

import incestless
from incestless import CommGraph

PUBLIC = [
    "AvailabilityError",
    "CommGraph",
    "ConfigError",
    "ConstraintViolationError",
    "DagViolationError",
    "DegenerateEvidenceError",
    "EvidenceOverflowError",
    "GraphFormatError",
    "IncestlessError",
    "MetricsTable",
    "RunTables",
    "RunTrace",
    "ScenarioConfig",
    "SignedInfinityError",
    "StateModel",
    "TopologySpec",
    "WeightOverflowError",
    "ZeroProbabilityActionError",
    "action_likelihood",
    "action_table",
    "aggregate",
    "augment_for_constraint",
    "choose_action",
    "compute_weights",
    "constraint_report",
    "default_model",
    "errors",
    "estimate_state",
    "full_history_belief",
    "generate_topology",
    "graph",
    "graph_from_edges",
    "learning",
    "load_graph",
    "monte_carlo",
    "normalize_log",
    "private_belief",
    "quadratic_cost",
    "run_once",
    "run_tables",
    "sample_observation",
    "save_graph",
    "seed_rng",
    "simulate",
    "topology_rng",
    "transitive_closure",
    "triangular_likelihood",
]


def test_public_names():
    assert sorted(incestless.__all__) == PUBLIC


def test_imports_only_declared_dependencies():
    # every import in the package, inline ones too, is relative, from the
    # standard library, or of pyproject.toml's dependencies (pyyaml is yaml)
    allowed = set(sys.stdlib_module_names) | {"numpy", "click", "yaml"}
    imported = set()
    for path in pathlib.Path(incestless.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    assert imported - allowed == set()
    # hashlib is imported only inside CommGraph.digest
    assert {"numpy", "click", "yaml", "hashlib"} <= imported


def test_graph_fields():
    assert [f.name for f in dataclasses.fields(CommGraph)] == ["adjacency", "closure"]


def test_array_holding_types_compare_by_identity():
    # each type holds numpy arrays, which have no single truth value, so an
    # object equals only itself and hashes as itself; a ScenarioConfig
    # compares its fields, its model by identity
    def config():
        return incestless.ScenarioConfig(model=incestless.default_model(), runs=2,
                                         topology=incestless.TopologySpec(kind="chain41"))

    def build():
        c = config()
        graph = incestless.simulate.build_graph(c)
        tables = incestless.run_tables(c, graph)
        return [graph, c.model, tables,
                incestless.run_once(c, graph, incestless.seed_rng(0, 1), tables=tables),
                incestless.monte_carlo(c, graph), c]

    for first, second in zip(build(), build()):
        assert first == first and first != second
        assert hash(first) == hash(first)
    same = config()
    assert dataclasses.replace(same) == same and hash(dataclasses.replace(same)) == hash(same)
