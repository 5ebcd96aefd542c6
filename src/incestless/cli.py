"""Command-line front end.

Subcommands:
  run                execute a scenario config, write CSV outputs
  report-constraint  check the topological constraint for a config's graph
  gen-graph          write a generated topology as an edge-list file
  closure            inspect closure, weights and constraint of a graph file

Scenario configs are YAML; bundled paper-style configs (paper_chain41,
paper_complete, paper_star, paper_random4) can be referenced by name.
A config's keys are the fields of simulate.ScenarioConfig, its topology
section's those of graph.TopologySpec and its model section's the
parameters of learning.default_model; those hold every default and
check, so this module writes none of them again.  The seed of run and
report-constraint is --seed, else the variable INCESTLESS_SEED (that
option's click envvar, where an empty value counts as unset), else the
config's; gen-graph's --seed does not read the variable.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.resources
import inspect
import os
import sys
from collections.abc import Iterator

import click
import yaml

from . import graph as graphmod
from . import learning, simulate
from .errors import ConfigError, ConstraintViolationError, IncestlessError
from .graph import TopologySpec

_MODEL_KEYS = frozenset(inspect.signature(learning.default_model).parameters)
# libyaml's loader where PyYAML was built with it, else the pure-Python one;
# both build the same objects from a config
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _section(raw: dict, key: str, allowed) -> dict:
    """raw[key] (default empty), which must be a mapping with no key outside allowed."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    _reject_unknown(value, allowed, key)
    return dict(value)


def load_config_file(name_or_path: str) -> dict:
    """Load a YAML config from a path, or a bundled config by name; a file
    that is not UTF-8 raises ConfigError, prefixed by the path."""
    if os.path.exists(name_or_path):
        try:
            with open(name_or_path) as f:
                raw = yaml.load(f, Loader=_YAML_LOADER)
        except UnicodeDecodeError as e:
            raise ConfigError(f"{name_or_path}: {e}") from None
    else:
        resource = importlib.resources.files("incestless") / "configs" / f"{name_or_path}.yaml"
        if not resource.is_file():
            raise ConfigError(f"config {name_or_path!r}: no such file or bundled config")
        raw = yaml.load(resource.read_text(), Loader=_YAML_LOADER)
    if not isinstance(raw, dict):
        raise ConfigError(f"config {name_or_path!r} is not a mapping")
    return raw


def build_scenario(raw: dict, **overrides) -> simulate.ScenarioConfig:
    """ScenarioConfig of the keys present in raw (it holds the defaults and
    the checks), then the overrides that are not None.  It reads nothing but
    its arguments.  An overridden file value is still checked."""
    fields = dict(raw)
    if "output_dir" in fields:  # cmd_run's to read; checked here, before any run
        out_dir = fields.pop("output_dir")
        if not isinstance(out_dir, str) or not out_dir:
            raise ConfigError(f"output_dir must be a non-empty string, got {out_dir!r}")
    _reject_unknown(fields, {f.name for f in dataclasses.fields(simulate.ScenarioConfig)}, "config")
    topo_raw = _section(raw, "topology", {f.name for f in dataclasses.fields(TopologySpec)})
    if "kind" not in topo_raw:
        raise ConfigError("topology.kind is required")
    fields.update(topology=TopologySpec(**topo_raw),
                  model=learning.default_model(**_section(raw, "model", _MODEL_KEYS)))
    scenario = simulate.ScenarioConfig(**fields)

    overrides = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(scenario, **overrides) if overrides else scenario


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _violation(indices) -> str:
    return "violation at " + " ".join(map(str, indices))


def _output_chunks(metrics: simulate.MetricsTable) -> dict[str, Iterator[str]]:
    """File name -> the text of the long-format CSVs and the constraint report,
    in chunks of one node's rows (actions) or one mode's rows (the rest), so
    that no file is ever held in memory whole."""
    nodes = range(1, metrics.num_nodes + 1)

    def actions():
        yield "node,mode,run,action\n"
        for mode in metrics.modes:
            for n, acts in zip(nodes, metrics.actions[mode].T.tolist()):
                yield "".join(f"{n},{mode},{r},{a}\n" for r, a in enumerate(acts, start=1))

    def per_node(header, values):
        yield header
        for mode in metrics.modes:
            yield "".join(f"{n},{mode},{_fmt(v)}\n" for n, v in zip(nodes, values[mode].tolist()))

    def constraint():
        if metrics.constraint is None:
            yield "constraint not checked: the incest-removal weights leave the int64 range\n"
        elif not metrics.constraint:
            yield "all nodes satisfy the topological constraint\n"
        else:
            for n in sorted(metrics.constraint):
                yield f"node {n}: {_violation(metrics.constraint[n])}\n"

    return {"actions.csv": actions(),
            "estimates.csv": per_node("node,mode,mean_estimate\n", metrics.mean_estimate),
            "mse.csv": per_node("node,mode,mse\n", metrics.mse),
            "constraint.txt": constraint()}


def write_outputs(metrics: simulate.MetricsTable, out_dir: str) -> None:
    """Emit the long-format CSVs and the constraint report in out_dir
    through graph.write_files: all four files or none of them."""
    graphmod.write_files(out_dir, _output_chunks(metrics))


@contextlib.contextmanager
def _exit_on_error() -> Iterator[None]:
    """Report an error as one `error:` line on stderr, without a traceback:
    exit 2 on a constraint violation, 1 on any other."""
    try:
        yield
    except ConstraintViolationError as e:
        click.echo(f"error: {e} (use --force to run anyway)", err=True)
        sys.exit(2)
    except (IncestlessError, OSError, yaml.YAMLError, TypeError, ValueError, MemoryError) as e:
        click.echo(f"error: {str(e) or type(e).__name__}", err=True)
        sys.exit(1)


class _Group(click.Group):
    """click's group, but a usage error (a bad option value, an unknown
    option or command) exits 1 with click's message, not click's 2: exit 2
    is a constraint violation."""

    def make_context(self, *args, **kwargs):
        return _usage_exits_1(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_exits_1(super().invoke, ctx)


def _usage_exits_1(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as e:
        e.exit_code = 1
        raise


def _non_empty(ctx, param, value):
    """Refuse an empty output path, which names no file or directory."""
    if value == "":
        raise click.BadParameter("the path is empty")
    return value


@click.group(cls=_Group)
def main():
    """Bayesian social learning with optimal data-incest removal."""


@main.command("run")
@click.argument("config")
@click.option("--seed", type=int, default=None, envvar="INCESTLESS_SEED",
              show_envvar=True, help="Override the config seed.")
@click.option("--runs", type=int, default=None, help="Override the run count.")
@click.option("--modes", default=None,
              help=f"Comma-separated mode list ({','.join(simulate.MODES)}).")
@click.option("--output-dir", default=None, callback=_non_empty,
              help="Output directory (default: out).")
@click.option("--force", is_flag=True, default=False,
              help="Run removal mode even if the topological constraint is violated.")
def cmd_run(config, seed, runs, modes, output_dir, force):
    """Run a scenario and write actions.csv, estimates.csv, mse.csv, constraint.txt."""
    with _exit_on_error():
        raw = load_config_file(config)
        scenario = build_scenario(raw, seed=seed, runs=runs,
                                  force=True if force else None,
                                  modes=None if modes is None else tuple(modes.split(",")))
        out_dir = output_dir or raw.get("output_dir", "out")
        write_outputs(simulate.monte_carlo(scenario), out_dir)
    click.echo(f"wrote {out_dir}/actions.csv, estimates.csv, mse.csv, constraint.txt")


@main.command("report-constraint")
@click.argument("config")
@click.option("--seed", type=int, default=None, envvar="INCESTLESS_SEED",
              show_envvar=True, help="Override the config seed.")
def cmd_report_constraint(config, seed):
    """Print the per-node topological constraint status for a config's graph."""
    with _exit_on_error():
        graph = simulate.build_graph(build_scenario(load_config_file(config), seed=seed))
        report = graphmod.constraint_report(graph)
    for n in range(2, graph.size + 1):
        click.echo(f"node {n}: {_violation(report[n]) if n in report else 'satisfied'}")
    if report:
        sys.exit(2)


@main.command("gen-graph")
@click.argument("kind")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--agents", type=int, default=TopologySpec.agents)
@click.option("--epochs", type=int, default=TopologySpec.epochs)
@click.option("--out", required=True, type=click.Path(), callback=_non_empty)
def cmd_gen_graph(kind, seed, agents, epochs, out):
    """Generate a topology and write it as an edge-list file."""
    with _exit_on_error():
        spec = TopologySpec(kind=kind, agents=agents, epochs=epochs)
        graph = graphmod.generate_topology(spec, graphmod.topology_rng(seed))
        graphmod.save_graph(graph, out)
    click.echo(f"wrote {out} ({graph.size} nodes)")


@main.command("closure")
@click.argument("graph_file", type=click.Path())
def cmd_closure(graph_file):
    """Print the transitive closure and per-node t, b, w, constraint status."""
    with _exit_on_error():
        graph = graphmod.load_graph(graph_file)
        report = graphmod.constraint_report(graph)
    click.echo("closure:")
    for row in graph.closure:
        click.echo(" ".join(str(int(v)) for v in row))
    for n in range(1, graph.size + 1):
        t_n, b_n = graph.closure[: n - 1, n - 1], graph.adjacency[: n - 1, n - 1]
        status = _violation(report[n]) if n in report else "OK"
        click.echo(
            f"node {n}: t={list(map(int, t_n))} b={list(map(int, b_n))} "
            f"w={list(map(int, graph.weights[: n - 1, n - 1]))} constraint {status}"
        )


if __name__ == "__main__":
    main()
