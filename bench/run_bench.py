#!/usr/bin/env python3
"""Benchmark of the incestless package, end to end and per layer.

    python3 bench/run_bench.py --workload bundled --seed 1 --seconds 20 --trace 0

Run from anywhere; it imports the package from the ``src/`` next to this
directory and builds nothing.  Workloads are in workloads.py.  With
``--trace 0`` it times the workload's top-level calls and each ``run_once``
for ``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it times one untraced pass, then repeats the same pass with
every layer function wrapped for ``--seconds`` seconds, and reports the
per-layer metrics per pass (counts are exact) and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  An operation whose output fails a check counts in
``failed``.  A run counts the operations of its workload's distinct
inputs once, however many passes repeat them, so ``attempted`` and
``failed`` depend on the seed alone.  ``correct`` is false only if passes
given the same inputs disagree, which includes a traced pass disagreeing
with the untraced one.
The exit code is nonzero only for an error of the benchmark itself.
Spans are written to ``bench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

# one BLAS thread: the figures are for a single core, and the pin has to be
# in place before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the benchmark chooses every seed itself
os.environ.pop("INCESTLESS_SEED", None)

import numpy as np  # noqa: E402  (after the thread pins)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

END_TO_END = (
    ("nodes_per_s", "1/s"),
    ("node_us.p50", "us"),
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name -> unit, in report order.  ".calls", ".s", ".self_s", ".terms" and
# ".bytes" are read from the spans of the named function; the rest are
# computed in per_layer().
PER_LAYER = {
    "graph.transitive_closure.calls": "count",
    "graph.transitive_closure.s": "s",
    "graph.compute_weights.calls": "count",
    "graph.compute_weights.s": "s",
    "graph.compute_weights.calls_per_node": "ratio",
    "graph.constraint_report.calls": "count",
    "graph.constraint_report.s": "s",
    "graph.augment_for_constraint.s": "s",
    "graph.generate_topology.s": "s",
    "graph.max_abs_weight": "count",
    "graph.exact_weight_failures": "count",
    "learning.action_likelihood.calls": "count",
    "learning.action_likelihood.s": "s",
    "learning.choose_action.calls": "count",
    "learning.choose_action.calls_per_action": "ratio",
    "learning.aggregate.calls": "count",
    "learning.aggregate.s": "s",
    "learning.aggregate.terms": "count",
    "learning.full_history_belief.calls": "count",
    "learning.full_history_belief.s": "s",
    "learning.full_history_belief.terms": "count",
    "learning.normalize_log.calls": "count",
    "learning.normalize_log.s": "s",
    "learning.private_belief.s": "s",
    "learning.sample_observation.s": "s",
    "learning.estimate_state.s": "s",
    "simulate.run_once.calls": "count",
    "simulate.run_once.s": "s",
    "simulate.run_once.self_s": "s",
    "simulate.monte_carlo.s": "s",
    "simulate.monte_carlo.self_s": "s",
    "simulate.node_weights.s": "s",
    "simulate.removal_gap_max": "state",
    "cli.load_config_file.s": "s",
    "cli.build_scenario.s": "s",
    "cli.write_outputs.s": "s",
    "cli.write_outputs.bytes": "B",
    "trace.overhead_share": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("bundled", "dense_scale", "graph_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure(workload, rec, seed, seconds, tmp, distinct):
    """Closed loop of passes until `seconds` have elapsed.  Pass i gets the
    inputs of i % distinct, and each of the `distinct` inputs runs at least once."""
    outcomes = []
    t0 = time.perf_counter()
    while len(outcomes) < distinct or time.perf_counter() - t0 < seconds:
        outcomes.append(workload.run_pass(rec, seed, len(outcomes) % distinct, tmp))
    return outcomes


def tally(outcomes, distinct):
    """(correct, attempted, failed): the counts of the first pass on each
    input, and whether every later pass found exactly what it found."""
    firsts = outcomes[:distinct]
    correct = all(o == firsts[i % distinct] for i, o in enumerate(outcomes))
    return (correct, sum(o.attempted for o in firsts), sum(o.failed for o in firsts))


def setup_per_pass(t):
    """Per pass: sum over its studies of the time from study start to first run."""
    runs = t.start[t.mask("simulate.run_once")]
    studies = t.mask("study")
    per_pass = []
    for p in t.mask("pass").nonzero()[0]:
        inside = studies & (t.start >= t.start[p]) & (t.start < t.end[p])
        total = 0.0
        for s in inside.nonzero()[0]:
            k = runs.searchsorted(t.start[s])
            first = runs[k] if k < len(runs) and runs[k] < t.end[s] else t.end[s]
            setup = first - t.start[s] - t.calibration_between(t.start[s], first)
            if t.scaled:
                setup *= t.interval_scale([t.start[s]], [first])[0]
            total += setup
        per_pass.append(total)
    return per_pass


def end_to_end(t, workload):
    unit = t.mask(workload.unit_span)
    if not unit.any():
        raise SystemExit("error: no operation completed, so there is nothing to time")
    return {
        "nodes_per_s": t.work_sum(workload.unit_span) / t.seconds(workload.busy_span),
        "node_us.p50": statistics.median(t.dur[unit] / t.work[unit]) * 1e6,
        "setup_s": statistics.median(setup_per_pass(t)),
        "wall_s": statistics.median(t.dur[t.mask("pass")]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(t, outcomes, overhead):
    n = len(outcomes)
    values = {}
    for name in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = t.calls(fn) / n
        elif stat == "s":
            values[name] = t.seconds(fn) / n
        elif stat == "self_s":
            values[name] = t.self_seconds(fn) / n
        elif stat in ("terms", "bytes"):
            values[name] = t.work_sum(fn) / n
    actions = t.work_sum("simulate.run_once")
    nodes = sum(o.graph_nodes for o in outcomes)
    values["graph.compute_weights.calls_per_node"] = (
        t.calls("graph.compute_weights") / nodes if nodes else 0.0)
    values["learning.choose_action.calls_per_action"] = (
        t.calls("learning.choose_action") / actions if actions else 0.0)
    values["graph.max_abs_weight"] = t.work_max("graph.compute_weights")
    values["graph.exact_weight_failures"] = sum(o.weight_failures for o in outcomes) / n
    values["simulate.removal_gap_max"] = max(o.removal_gap for o in outcomes)
    values["trace.overhead_share"] = overhead
    return values


def quantile_line(label, samples, unit):
    """Median, and p90 only where at least ten samples lie beyond it."""
    s = sorted(samples)
    line = f"{label}: p50 {statistics.median(s):.6g} {unit}"
    if len(s) >= 100:
        line += f", p90 {statistics.quantiles(s, n=10)[-1]:.6g} {unit}"
    return line + f" (n={len(s)})"


def report(workload, t, outcomes, attempted, failed, metrics, units):
    unit = t.mask(workload.unit_span)
    print(f"workload {workload.name}: {len(outcomes)} pass(es)")
    print(quantile_line(f"{workload.unit_span} latency", t.dur[unit] * 1e3, "ms"))
    print(f"ops_failed_share: {failed / attempted:.6g} ({failed} of {attempted}"
          f" distinct operations)")
    print(f"exact weight failures: {sum(o.weight_failures for o in outcomes)}"
          f" over {len(outcomes)} pass(es)")
    print(f"removal_gap_max: {max(o.removal_gap for o in outcomes):.6g}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "incestless", "__init__.py")):
        print(f"error: no incestless package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    import incestless
    if os.path.dirname(os.path.dirname(os.path.abspath(incestless.__file__))) != SRC_DIR:
        print(f"error: imported incestless from {incestless.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        return 2
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        rec = tracer.Recorder()
        with rec.installed(workloads.MODULES, tracer.COARSE, tracer.CALIBRATION_POINTS):
            with rec.paused():
                workload.warm_up(tmp)
            if args.trace:
                base = workload.run_pass(rec, args.seed, 0, tmp)
            else:
                outcomes = measure(workload, rec, args.seed, args.seconds, tmp,
                                   workload.distinct_passes)
        if args.trace:
            untraced = tracer.SpanTable(rec)
            # every traced span boundary is a calibration point already
            rec = tracer.Recorder()
            with rec.installed(workloads.MODULES, tracer.COARSE + tracer.LAYER):
                outcomes = measure(workload, rec, args.seed, args.seconds, tmp, 1)
    rec.save(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.npz"))
    t = tracer.SpanTable(rec)
    print(f"calibration loop: median {statistics.median(t.calibration) * 1e3:.4g} ms"
          f" (n={len(t.calibration)}); times below are scaled to"
          f" {tracer.CALIBRATION_S * 1e3:g} ms")

    if args.trace:
        overhead = (statistics.median(t.dur[t.mask("pass")])
                    / untraced.dur[untraced.mask("pass")][0] - 1)
        metrics = per_layer(t, outcomes, overhead)
        units = PER_LAYER
        correct, attempted, failed = tally([base] + outcomes, 1)
    else:
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in end_to_end(
            tracer.SpanTable(rec, scaled=False), workload).items()))
        metrics = end_to_end(t, workload)
        units = dict(END_TO_END)
        correct, attempted, failed = tally(outcomes, workload.distinct_passes)

    report(workload, t, outcomes, attempted, failed, metrics, units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
