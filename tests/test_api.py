"""The package's public names and the graph's fields, so that adding or
removing one is a one-line diff."""

import dataclasses

import incestless
from incestless import CommGraph

PUBLIC = [
    "AvailabilityError",
    "CommGraph",
    "ConfigError",
    "ConstraintViolationError",
    "DagViolationError",
    "DegenerateEvidenceError",
    "GraphFormatError",
    "IncestlessError",
    "LogBelief",
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
    "independent_blocks",
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
    "weight_matrix",
]


def test_public_names():
    assert sorted(incestless.__all__) == PUBLIC


def test_graph_fields():
    assert [f.name for f in dataclasses.fields(CommGraph)] == ["adjacency", "closure"]
