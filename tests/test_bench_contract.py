"""The benchmark in bench/ times the package from outside by wrapping module
attributes.  These tests keep the names it wraps, and the call it counts as
its unit of work, from disappearing unnoticed."""

import importlib.util
from pathlib import Path

import pytest

from incestless import cli, graph, learning, simulate

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
MODULES = {"cli": cli, "graph": graph, "learning": learning, "simulate": simulate}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def wrapped_names():
    tracer = load_tracer()
    return ([(m, attr) for m, attr, _ in tracer.COARSE + tracer.LAYER]
            + list(tracer.CALIBRATION_POINTS))


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(MODULES[module], attr))


def test_monte_carlo_calls_run_once_once_per_run(monkeypatch):
    # the benchmark counts a run's node updates from run_once's first two
    # positional arguments, config and graph (tracer._run_nodes)
    calls = []
    run_once = simulate.run_once

    def counting(*args, **kwargs):
        calls.append((args[0].modes, args[1].size))
        return run_once(*args, **kwargs)

    monkeypatch.setattr(simulate, "run_once", counting)
    config = cli.build_scenario(cli.load_config_file("paper_star"), runs=3)
    metrics = simulate.monte_carlo(config)
    assert len(calls) == config.runs == 3
    assert calls == [(config.modes, metrics.num_nodes)] * 3
