"""Bayesian social learning over time-dependent DAGs with data-incest removal."""

from .errors import (
    AvailabilityError,
    ConfigError,
    ConstraintViolationError,
    DagViolationError,
    DegenerateEvidenceError,
    GraphFormatError,
    IncestlessError,
    SignedInfinityError,
    WeightOverflowError,
    ZeroProbabilityActionError,
)
from .graph import (
    CommGraph,
    TopologySpec,
    augment_for_constraint,
    compute_weights,
    constraint_report,
    generate_topology,
    graph_from_edges,
    load_graph,
    save_graph,
    seed_rng,
    topology_rng,
    transitive_closure,
    weight_matrix,
)
from .learning import (
    StateModel,
    action_likelihood,
    action_table,
    aggregate,
    choose_action,
    default_model,
    estimate_state,
    full_history_belief,
    normalize_log,
    private_belief,
    quadratic_cost,
    sample_observation,
    triangular_likelihood,
)
from .simulate import (
    MetricsTable,
    RunTables,
    RunTrace,
    ScenarioConfig,
    monte_carlo,
    run_once,
    run_tables,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
