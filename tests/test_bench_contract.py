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
    """Each (module, attribute) the tracer wraps, once, in order: the
    calibration points are also layer spans."""
    tracer = load_tracer()
    return list(dict.fromkeys([(m, attr) for m, attr, _ in tracer.COARSE + tracer.LAYER]
                              + list(tracer.CALIBRATION_POINTS)))


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(MODULES[module], attr))


@pytest.mark.parametrize("module, attr", load_tracer().CALIBRATION_POINTS)
def test_calibration_point_is_a_layer_span(module, attr):
    # a traced run installs COARSE + LAYER without CALIBRATION_POINTS
    # (run_bench.py), so it calibrates at these calls only as span boundaries
    assert (module, attr) in [(m, a) for m, a, _ in load_tracer().LAYER]


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
