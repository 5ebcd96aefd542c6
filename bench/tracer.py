"""In-memory spans around calls into the incestless package.

The benchmark never edits the package.  It replaces module attributes with
timing wrappers instead: every function listed below is looked up as a
module global when it is called (``simulate.run_once`` calls
``learning.aggregate``, ``graph.constraint_report`` calls
``compute_weights``, ``CommGraph.__post_init__`` calls
``transitive_closure``), so a wrapper installed on the module sees every
call, including the package's calls to itself.

A span is (name, start, end, parent span, work).  ``work`` is a count taken
from the call's arguments or result, such as the nodes a run updates or the
nonzero coefficients a fusion sums.  Spans live in typed arrays, about 30
bytes each, and are written out once, when the benchmark ends.

The host's speed swings by up to 2.5x over seconds, so plain timings of
the same 20 s workload spread by 20-30 % from run to run.  A recorder
therefore runs calibration_loop(), fixed work that uses no package code,
at a span boundary or CALIBRATION_POINTS call whenever
CALIBRATION_INTERVAL seconds have passed since the last one.  The loop's
own time is kept as "calibration" spans and taken out of every span around
it.  A span's time is then scaled by CALIBRATION_S / (mean time of the
loops run inside it and the nearest one on each side), which brought the
spread down to 2-8 %.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

CALIBRATION = "calibration"
CALIBRATION_INTERVAL = 0.2
# roughly the median time of calibration_loop() on the host the baseline was
# recorded on; it fixes the units of the scaled times, not their spread
CALIBRATION_S = 5.0e-3

_CAL_BELIEF = np.linspace(1.0, 2.0, 20) / np.linspace(1.0, 2.0, 20).sum()
_CAL_LIKELIHOOD = np.maximum(0.0, 3.0 - np.abs(np.subtract.outer(np.arange(20), np.arange(20))))
_CAL_COST = np.subtract.outer(np.arange(20.0), np.arange(0.5, 20.0, 2.0)) ** 2
_CAL_N = 300
_CAL_CLOSURE = np.triu(np.add.outer(np.arange(_CAL_N), 2 * np.arange(_CAL_N)) % 3 != 0
                       ).astype(np.int64) | np.eye(_CAL_N, dtype=np.int64)


def calibration_loop() -> None:
    """Fixed inputs, the same kind of work as the two kernels that dominate
    the workloads: the per-observation action choice of a belief update,
    and integer back substitution over a closure."""
    for _ in range(15):
        for j in range(20):
            unnorm = _CAL_BELIEF * _CAL_LIKELIHOOD[:, j]
            costs = (unnorm / unnorm.sum()) @ _CAL_COST
            cmin = costs.min()
            int(np.argmax(costs <= cmin + 1e-9 * max(1.0, abs(cmin))))
    for _ in range(2):
        w = np.zeros(_CAL_N, dtype=np.int64)
        for j in range(_CAL_N - 2, -1, -1):
            w[j] = (_CAL_CLOSURE[j, -1] - _CAL_CLOSURE[j, j + 1:] @ w[j + 1:]) % 1009


def _run_nodes(args, kwargs, result):
    """Node x mode belief updates made by one ``run_once(config, graph, ...)``."""
    return args[1].size * len(args[0].modes)


def _nonzero_arg1(args, kwargs, result):
    """Nonzero fusion coefficients: the weights of ``aggregate`` or t_n of
    ``full_history_belief``, both the second positional argument."""
    return int(np.count_nonzero(args[1]))


def _max_abs(args, kwargs, result):
    """Largest |w| in the weight vector as the program returned it."""
    if result.size == 0:
        return 0
    return min(max(int(result.max()), -int(result.min())), 2**63 - 1)


def _dir_bytes(args, kwargs, result):
    out_dir = args[1]
    return sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())


# (module, attribute, work counter).  COARSE is wrapped in every run: the
# workload's top-level calls and each run_once.  LAYER adds the fine-grained
# calls and is wrapped only in a traced run.
COARSE = (
    ("cli", "load_config_file", None),
    ("cli", "build_scenario", None),
    ("cli", "write_outputs", _dir_bytes),
    ("simulate", "build_graph", None),
    ("simulate", "monte_carlo", None),
    ("simulate", "run_once", _run_nodes),
    ("simulate", "node_weights", None),
    ("graph", "generate_topology", None),
    ("graph", "constraint_report", None),
    ("graph", "augment_for_constraint", None),
)
# Frequent calls inside long spans (graph set-up, dense runs), where an untraced run
# may also calibrate, so that the loop samples the host's speed evenly.
CALIBRATION_POINTS = (("graph", "compute_weights"), ("learning", "action_likelihood"))
LAYER = (
    ("graph", "transitive_closure", None),
    ("graph", "compute_weights", _max_abs),
    ("learning", "sample_observation", None),
    ("learning", "aggregate", _nonzero_arg1),
    ("learning", "full_history_belief", _nonzero_arg1),
    ("learning", "normalize_log", None),
    ("learning", "private_belief", None),
    ("learning", "choose_action", None),
    ("learning", "action_likelihood", None),
    ("learning", "estimate_state", None),
)


class Recorder:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self.active = True
        self._next_calibration = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _calibrate(self) -> None:
        idx = self._push(self.name_id(CALIBRATION), 0)
        calibration_loop()
        self.close(idx)
        self._next_calibration = self.end[idx] + CALIBRATION_INTERVAL

    def open(self, nid: int, work: int = 0) -> int:
        if perf_counter() >= self._next_calibration:
            self._calibrate()
        return self._push(nid, work)

    def _push(self, nid: int, work: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, work: int = 0):
        idx = self.open(self.name_id(name), work)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        """Let wrapped functions run unrecorded, e.g. inside correctness checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrap(self, fn, name, work_of):
        nid = self.name_id(name)
        # open() and close() inlined: this runs about a million times a pass
        names, parents, starts, ends, works = (
            self.name, self.parent, self.start, self.end, self.work)
        stack = self._stack

        def wrapped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if perf_counter() >= self._next_calibration:
                self._calibrate()
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            works.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if work_of is not None:
                works[idx] = work_of(args, kwargs, result)
            return result

        return wrapped

    def _point(self, fn):
        def wrapped(*args, **kwargs):
            if self.active and perf_counter() >= self._next_calibration:
                self._calibrate()
            return fn(*args, **kwargs)

        return wrapped

    @contextmanager
    def installed(self, modules: dict, targets, points=()):
        """Wrap ``modules[m].attr`` for each target, and make each point a
        place where a calibration loop may run; restore the originals after."""
        saved = []
        for mod_name, attr, work_of in targets:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, f"{mod_name}.{attr}", work_of))
        for mod_name, attr in points:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, self._point(fn))
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.uint16),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "work": np.array(self.work, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-name totals over a Recorder's spans.

    ``dur`` is a span's duration less the calibration loops inside it, and
    ``self_dur`` also leaves out its child spans.  With ``scaled`` both are
    multiplied by the span's speed scale (see the module docstring).
    """

    def __init__(self, rec: Recorder, scaled: bool = True):
        a = rec.arrays()
        self._ids = {n: i for i, n in enumerate(rec.names)}
        self.scaled = scaled
        self.name = a["name"]
        self.start = a["start"]
        self.end = a["end"]
        self.work = a["work"]
        dur = self.end - self.start
        is_calibration = self.mask(CALIBRATION)
        self.calibration = dur[is_calibration]
        self._cal_start = self.start[is_calibration]
        self._cal_sum = np.concatenate(([0.0], np.cumsum(self.calibration)))
        for c in is_calibration.nonzero()[0]:
            p = a["parent"][c]
            while p >= 0:
                dur[p] -= dur[c]
                p = a["parent"][p]
        has_parent = (a["parent"] >= 0) & ~is_calibration
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        scale = self.interval_scale(self.start, self.end) if scaled else 1.0
        self.dur = dur * scale
        self.self_dur = (dur - child) * scale

    def interval_scale(self, starts, ends) -> np.ndarray:
        """CALIBRATION_S / local calibration time, for each interval.

        The local time is the mean of the loops run inside the interval and
        the nearest one before and after it.
        """
        last = len(self._cal_start) - 1
        if last < 0:
            return np.ones(len(starts))
        lo = np.clip(self._cal_start.searchsorted(starts, "right") - 1, 0, last)
        hi = np.clip(self._cal_start.searchsorted(ends), 0, last)
        local = (self._cal_sum[hi + 1] - self._cal_sum[lo]) / (hi - lo + 1)
        return CALIBRATION_S / local

    def calibration_between(self, a: float, b: float) -> float:
        """Time spent in calibration loops that started in [a, b)."""
        lo, hi = self._cal_start.searchsorted([a, b])
        return self._cal_sum[hi] - self._cal_sum[lo]

    def mask(self, name: str) -> np.ndarray:
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == nid

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def seconds(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_dur[self.mask(name)].sum())

    def work_sum(self, name: str) -> int:
        return int(self.work[self.mask(name)].sum())

    def work_max(self, name: str) -> int:
        return int(self.work[self.mask(name)].max(initial=0))
