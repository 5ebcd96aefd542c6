"""The three benchmark workloads.

Each workload is a closed loop of passes: one caller, and the next call
starts when the previous one returns.  A pass is the unit a user runs, and
its timed part is the span "pass".  Pass i of a run gets the inputs of
``i % distinct_passes``, so the operations a run counts are fixed by its
seed, not by how many passes fit in its time.  Set-up is timed from the
start of each "study" span to its first ``run_once`` (or to its end, if it
runs none).
Checks run after the pass span closes, with recording paused, and count
each operation whose output is wrong as failed.

Every call into the package goes through a module attribute, so the
wrappers in tracer.py see it.
"""

from __future__ import annotations

import json
import os
import shutil
import traceback
from dataclasses import dataclass, field

import numpy as np

from incestless import cli, graph as graphmod, learning, simulate

import checks

MODULES = {"cli": cli, "graph": graphmod, "learning": learning, "simulate": simulate}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    """What the checks found in one pass."""

    attempted: int = 0
    failed: int = 0
    weight_failures: int = 0
    removal_gap: float = 0.0
    graph_nodes: int = 0
    fingerprints: list[str] = field(default_factory=list)

    def check_study(self, config, graph, metrics, weights) -> bool:
        """Count one study's runs; return False if the study failed as a whole."""
        self.attempted += config.runs
        self.graph_nodes += graph.size
        if not checks.weights_exact(graph.closure, weights):
            self.weight_failures += 1
            self.failed += config.runs
            return False
        if metrics is None:
            self.failed += config.runs
            return False
        mismatched, gap = checks.removal_vs_idealized(metrics)
        self.failed += mismatched
        self.removal_gap = max(self.removal_gap, gap)
        self.fingerprints.append(checks.fingerprint(
            metrics.true_states,
            *(metrics.actions[m] for m in metrics.modes),
            *(metrics.estimates[m] for m in metrics.modes),
        ))
        return True


def _guarded(call):
    """Run a call into the package.  An exception fails the operations that
    depend on it, not the benchmark; the traceback goes to standard error."""
    try:
        return call()
    except Exception:
        traceback.print_exc()
        return None


class Bundled:
    """The four bundled scenarios, through the calls ``incestless run`` makes."""

    name = "bundled"
    # bundled scenarios keep their bundled seeds: the golden digests are
    # defined for them, so every pass gets the same inputs
    distinct_passes = 1
    unit_span = "simulate.run_once"
    busy_span = "simulate.monte_carlo"
    scenarios = ("paper_chain41", "paper_complete", "paper_star", "paper_random4")

    def __init__(self):
        with open(os.path.join(BENCH_DIR, "golden.json")) as f:
            self.golden = json.load(f)

    def warm_up(self, tmp):
        config = cli.build_scenario(cli.load_config_file("paper_star"), runs=2)
        cli.write_outputs(simulate.monte_carlo(config), os.path.join(tmp, "warm"))

    def run_pass(self, rec, seed, i, tmp):
        studies = []
        with rec.span("pass"):
            for name in self.scenarios:
                out_dir = os.path.join(tmp, name)
                with rec.span("study"):
                    config = cli.build_scenario(cli.load_config_file(name))
                    metrics = _guarded(lambda: simulate.monte_carlo(config))
                    if metrics is not None:
                        _guarded(lambda: cli.write_outputs(metrics, out_dir))
                studies.append((name, config, metrics, out_dir))

        out = Outcome()
        with rec.paused():
            for name, config, metrics, out_dir in studies:
                graph = simulate.build_graph(config)
                ok = out.check_study(config, graph, metrics, simulate.node_weights(graph))
                # one more operation: the scenario's CSV set
                out.attempted += 1
                try:
                    ok = ok and checks.csv_digests(out_dir) == self.golden[name]
                except OSError:
                    ok = False
                out.failed += not ok
                shutil.rmtree(out_dir, ignore_errors=True)
        return out


class DenseScale:
    """One dense study per pass: complete_delay, 10 agents x 20 epochs, augmented."""

    name = "dense_scale"
    distinct_passes = 4
    unit_span = "simulate.run_once"
    busy_span = "simulate.monte_carlo"
    runs_per_pass = 4

    @staticmethod
    def raw_config(seed, epochs, runs):
        return {
            "topology": {"kind": "complete_delay", "agents": 10, "epochs": epochs},
            "true_state": "random",
            "modes": ["naive", "removal", "idealized"],
            "runs": runs,
            "seed": seed,
        }

    def warm_up(self, tmp):
        config = cli.build_scenario(self.raw_config(0, epochs=2, runs=2))
        simulate.monte_carlo(config, graph=graphmod.augment_for_constraint(
            simulate.build_graph(config)))

    def run_pass(self, rec, seed, i, tmp):
        with rec.span("pass"), rec.span("study"):
            config = cli.build_scenario(
                self.raw_config(seed * 1000 + i, epochs=20, runs=self.runs_per_pass))
            graph = _guarded(lambda: graphmod.augment_for_constraint(
                simulate.build_graph(config)))
            metrics = None if graph is None else _guarded(
                lambda: simulate.monte_carlo(config, graph=graph))

        out = Outcome()
        if graph is None:
            out.attempted = out.failed = config.runs
            return out
        with rec.paused():
            out.check_study(config, graph, metrics, simulate.node_weights(graph))
        return out


class GraphSweep:
    """The graph layer alone: what gen-graph, closure and report-constraint do."""

    name = "graph_sweep"
    distinct_passes = 1
    # per node of the whole sweep: a median over its graphs, which range
    # from N = 200 to 600, would only pick whichever size sits in the middle
    unit_span = "pass"
    busy_span = "pass"
    kinds = ("random4", "complete_delay")
    # N = 200, 400, 600; complete_delay at N = 600 has true weights beyond
    # the int64 range, so the exact check fails there until that is fixed
    epochs = (20, 40, 60)
    agents = 10
    # that graph is there to hold weights beyond int64.  On about 1 seed in
    # 20 its first draw stays inside the range, so it is drawn again until
    # the float estimate of its largest weight clears this, with a margin
    # the estimate's error cannot cross.  Every seed then holds it.
    beyond_int64 = 2.0 ** 65

    def __init__(self):
        self._keys = {}

    def warm_up(self, tmp):
        spec = graphmod.TopologySpec(kind="complete_delay", agents=self.agents, epochs=2)
        simulate.node_weights(graphmod.augment_for_constraint(
            graphmod.generate_topology(spec, np.random.default_rng(0))))

    def graph_keys(self, seed, i):
        """(spec, generator key) of each graph of pass i; computed once."""
        if (seed, i) not in self._keys:
            keys = []
            for epochs in self.epochs:
                for k, kind in enumerate(self.kinds):
                    spec = graphmod.TopologySpec(kind=kind, agents=self.agents, epochs=epochs)
                    key = [seed, i, k, epochs]
                    if kind == "complete_delay" and epochs == max(self.epochs):
                        key = self._beyond_int64_key(spec, key)
                    keys.append((spec, key))
            self._keys[seed, i] = keys
        return self._keys[seed, i]

    def _beyond_int64_key(self, spec, key):
        # |w_n(j)| is an entry of T^-1, so its largest entry is max |w|
        for redraw in range(100):
            k = key + [redraw] if redraw else key
            t = graphmod.generate_topology(spec, np.random.default_rng(k)).closure
            if np.abs(np.linalg.inv(t.astype(np.float64))).max() > self.beyond_int64:
                return k
        raise RuntimeError(f"no {spec.kind} graph with weights beyond int64 for {key}")

    def run_pass(self, rec, seed, i, tmp):
        with rec.paused():
            keys = self.graph_keys(seed, i)
        results = []
        nodes = self.agents * sum(self.epochs) * len(self.kinds)
        with rec.span("pass", work=nodes), rec.span("study"):
            for spec, key in keys:
                rng = np.random.default_rng(key)

                def pipeline():
                    g = graphmod.generate_topology(spec, rng)
                    report = graphmod.constraint_report(g)
                    fixed = graphmod.augment_for_constraint(g)
                    return g, report, fixed, simulate.node_weights(fixed)

                with rec.span("graph", work=spec.agents * spec.epochs):
                    results.append(_guarded(pipeline))

        out = Outcome()
        for result in results:
            out.attempted += 1
            if result is None:
                out.failed += 1
                continue
            g, report, fixed, weights = result
            out.graph_nodes += g.size
            exact = checks.weights_exact(fixed.closure, weights)
            ok = (
                exact
                and np.array_equal(g.closure, fixed.closure)
                and report == checks.unavailable(g.adjacency, weights)
                and not checks.unavailable(fixed.adjacency, weights)
            )
            out.weight_failures += not exact
            out.failed += not ok
            out.fingerprints.append(checks.fingerprint(fixed.adjacency, *weights))
        return out


WORKLOADS = {w.name: w for w in (Bundled, DenseScale, GraphSweep)}
