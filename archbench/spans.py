"""Spans around calls into archdam's public functions.

The tracer wraps module and class attributes of the archdam package
while a traced round runs and restores them afterwards; nothing inside
archdam is edited. A target that no longer exists is skipped, so a layer
that a later version stops calling reports 0 calls rather than an error.

Each span is [name, start, end, parent index, round]. Counting done after
a call (feasible designs, front counts, stress domains), and the speed
calibration inside a traced round, run inside a span named POST, whose
time is taken out of every enclosing span, so that the benchmark's own
work does not show up as time of a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

POST = "trace.post"


def _count_evaluations(counts, args, out):
    problem, X = args[0], np.atleast_2d(args[1])
    F, viol = out
    counts["objectives.designs"] += len(X)
    counts["objectives.feasible"] += int((np.asarray(viol) == 0.0).sum())
    penalty = (F[:, 0] == problem.penalty_fit1) & (F[:, 1] == problem.penalty_fit2)
    counts["objectives.degenerate"] += int(penalty.sum())


def _count_fronts(counts, args, out):
    if len(out):
        counts["mocss.pareto_rank.fronts"] += int(np.max(out))


def _count_states(counts, args, out):
    states = out.states
    counts["stress_model.states"] += states.shape[0] * states.shape[1]


def _count_domains(counts, args, out):
    s = np.asarray(args[0]).reshape(-1, 3)
    ttt = s[:, 2] >= 0.0
    ttc = ~ttt & (s[:, 1] > 0.0)
    tcc = ~ttt & ~ttc & (s[:, 0] > 0.0)
    for name, mask in (("TTT", ttt), ("TTC", ttc), ("TCC", tcc), ("CCC", ~(ttt | ttc | tcc))):
        counts[f"willam_warnke.states_{name}"] += int(mask.sum())


def _count_run(counts, args, out):
    counts["mocss.iterations"] += len(out.log) - 1
    counts["mocss.evaluations"] += out.n_evaluations
    counts["mocss.infeasible_iters"] += sum(1 for e in out.log if e["fit1_min"] is None)
    counts["mocss.archive_size_final"] = len(out.objectives)


def _count_benchmark_designs(counts, args, out):
    counts["benchmarks.designs"] += len(np.atleast_2d(args[1]))


# (span name, module, attribute, counting hook)
TARGETS = (
    ("objectives.evaluate_batch", "archdam.objectives", "DamProblem.evaluate_batch", _count_evaluations),
    ("geometry.DamGeometry", "archdam.geometry", "DamGeometry.__init__", None),
    ("geometry.check_radii", "archdam.geometry", "DamGeometry.check_radii", None),
    ("geometry.geometric_constraints", "archdam.geometry", "DamGeometry.geometric_constraints", None),
    ("geometry.volume", "archdam.geometry", "DamGeometry.volume", None),
    ("stress_model.sample_grid", "archdam.stress_model", "sample_grid", None),
    ("stress_model.evaluate_stresses", "archdam.stress_model", "evaluate_stresses", _count_states),
    ("willam_warnke.criterion_values", "archdam.willam_warnke", "criterion_values", _count_domains),
    ("willam_warnke.hydrostatic_validity", "archdam.willam_warnke", "hydrostatic_validity", None),
    ("mocss.run_mocss", "archdam.mocss", "run_mocss", _count_run),
    ("mocss.pareto_rank", "archdam.mocss", "pareto_rank", _count_fronts),
    ("benchmarks.hypervolume2d", "archdam.benchmarks", "hypervolume2d", None),
    ("benchmarks.evaluate_batch", "archdam.benchmarks", "BenchmarkProblem.evaluate_batch", _count_benchmark_designs),
    ("mtdm.rank_R", "archdam.mtdm", "rank_R", None),
)


class Tracer:
    """In-memory span recorder; use `with tracer:` around one traced round."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.rounds = 0
        self._stack = []
        self._saved = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.rounds])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self.untimed(hook, self.counts, args, out)
            return out

        return traced

    def untimed(self, fn, *args):
        """Call fn(*args) in a span whose time is taken out of every
        enclosing span."""
        idx = self._open(POST)
        try:
            fn(*args)
        finally:
            self._close(idx)

    def __enter__(self):
        package = [m for n, m in list(sys.modules.items()) if n == "archdam" or n.startswith("archdam.")]
        for name, module, attr, hook in TARGETS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                continue
            owner_name, _, fname = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                fn = getattr(owner, "__dict__", {}).get(fname)
                if fn is not None:
                    self._saved.append((owner, fname, fn))
                    setattr(owner, fname, self._wrap(name, fn, hook))
                continue
            fn = getattr(mod, fname, None)
            if fn is None:
                continue
            traced = self._wrap(name, fn, hook)
            # rebind every name the package holds for it: `from .x import f`
            # copies the reference into the importing module
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, key, fn))
                        setattr(m, key, traced)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, key, fn = self._saved.pop()
            setattr(owner, key, fn)
        self.rounds += 1
        return False

    def layer_times(self):
        """Per span name: calls, total seconds and self seconds, with the
        time of counting hooks removed from every enclosing span."""
        n = len(self.spans)
        net = [0.0] * n
        hooks = [0.0] * n
        child = [0.0] * n
        for i in range(n - 1, -1, -1):  # descendants come after their span
            name, start, end, parent, _ = self.spans[i]
            net[i] = end - start - hooks[i]
            if parent < 0:
                continue
            if name == POST:
                hooks[parent] += end - start
            else:
                hooks[parent] += hooks[i]
                child[parent] += net[i]
        out = {}
        for i, (name, *_rest) in enumerate(self.spans):
            if name == POST:
                continue
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + net[i], own + net[i] - child[i])
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
