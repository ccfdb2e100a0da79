"""The three benchmark workloads.

Each workload is built from a seed, runs identical rounds (the timed
part) and checks every round's outputs against the oracles in
`oracles.py`. Every call into archdam goes through a module attribute
looked up at call time, so that the tracer's wrappers are seen.

A workload counts operations: every timed call it makes into archdam and
every correctness check. A call that raises, or a check that does not
hold, is a failed operation; a check whose inputs failed to come about
fails too, so every round attempts the same operations.
"""

from __future__ import annotations

import sys

import numpy as np

import archdam
import oracles

# canyon written into the benchmark's config and used by the volume oracle
GEOMETRY = {"h": 142.65, "w_crest": 135.0, "w_base": 47.25}
# volume weights of the decision scenarios, falling
WEIGHTS = (0.9, 0.7, 0.5, 0.3, 0.1)
ZDT1_RUNS_PER_ROUND = 3
IGD_LIMIT = 0.05
# evaluation designs: population step, reseeding step, then CLI single calls
BATCHES = (100, 30) + (1,) * 10


def _close(a, b):
    return np.allclose(a, b, rtol=1e-9, atol=1e-12)


class Workload:
    def __init__(self, seed):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self._first = None

    def tick(self, *_):
        """Called between steps of a round; the runner may replace it."""

    def config(self):
        """JSON object written to the config file that set-up loads."""
        return {}

    def op(self, name, fn, *args):
        """Run one operation; return its value, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"failed: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)

    def same_as_first(self, name, arrays):
        """Every round repeats the first one exactly (determinism)."""
        if self._first is None:
            self._first = arrays
        self.check(name, all(a is not None and b is not None and np.array_equal(a, b)
                             for a, b in zip(arrays, self._first)))


class DamOptimize(Workload):
    """MoCSS on the default dam problem, then the decision step."""

    ITERATIONS = 20

    def config(self):
        return {"geometry": GEOMETRY,
                "mocss": {"n_cps": 100, "iterations": self.ITERATIONS,
                          "archive_capacity": 100, "seed": self.seed}}

    def setup(self, cfg):
        self.problem = archdam.make_problem(cfg)
        self.mocss_cfg = archdam.make_mocss_config(cfg)
        self.scenarios = [archdam.Scenario(name=f"w{w:.1f}", weights=(w, 1.0 - w))
                          for w in WEIGHTS]

    def round(self):
        hv_ref = (self.problem.penalty_fit1, self.problem.penalty_fit2)
        res = self.op("run_mocss", lambda: archdam.mocss.run_mocss(
            self.problem, self.mocss_cfg, hook=self.tick, hv_reference=hv_ref))
        picks = []
        for sc in self.scenarios:
            def decide(sc=sc):
                keep = (res.violations == 0.0) & archdam.mtdm.acceptable_mask(res.objectives)
                Fa = res.objectives[keep]
                return Fa[archdam.mtdm.rank_R(Fa, sc).best]
            picks.append(self.op(f"rank_R {sc.name}", decide))
        return res, picks

    def verify(self, out):
        res, picks = out
        if res is None:
            for name in ("re-evaluation", "non-dominance", "weight sweep", "determinism"):
                self.check(name, False)
            return
        evals = [self.problem.evaluate(x) for x in res.positions]
        self.check("archive re-evaluation gives the reported objectives",
                   _close([[e.fit1, e.fit2] for e in evals], res.objectives)
                   and _close([e.violation for e in evals], res.violations))
        feas = res.violations == 0.0
        self.check("feasible archive members mutually non-dominated, archive within capacity",
                   oracles.mutually_nondominated(res.objectives[feas])
                   and len(res.objectives) <= self.mocss_cfg.archive_capacity)
        ok = all(p is not None for p in picks)
        if ok:
            f1 = [p[0] for p in picks]
            ok = all(a <= b + 1e-9 for a, b in zip(f1, f1[1:]))
        self.check("best volume does not decrease as the volume weight falls", ok)
        self.same_as_first("rerun gives the same archive",
                           [res.positions, res.objectives, res.violations])


class Zdt1Optimize(Workload):
    """MoCSS 100x200 on ZDT1, a few seeds per round."""

    def config(self):
        return {"mocss": {"n_cps": 100, "iterations": 200, "archive_capacity": 100,
                          "seed": self.seed}}

    def setup(self, cfg):
        self.problem = archdam.get_benchmark("ZDT1")
        self.mocss_cfgs = [archdam.make_mocss_config(cfg, seed=ZDT1_RUNS_PER_ROUND * self.seed + k)
                           for k in range(ZDT1_RUNS_PER_ROUND)]

    def round(self):
        return [self.op(f"run_mocss seed {c.seed}", archdam.mocss.run_mocss,
                        self.problem, c, self.tick)
                for c in self.mocss_cfgs]

    def verify(self, results):
        igds = []
        for c, res in zip(self.mocss_cfgs, results):
            if res is None:
                self.check(f"seed {c.seed} re-evaluation", False)
                self.check(f"seed {c.seed} non-dominance", False)
                igds.append(np.inf)
                continue
            self.check(f"seed {c.seed}: archive re-evaluated in closed form gives its objectives",
                       np.allclose(oracles.zdt1(res.positions), res.objectives, rtol=1e-12, atol=1e-12))
            self.check(f"seed {c.seed}: archive non-dominated and within capacity",
                       oracles.mutually_nondominated(res.objectives)
                       and len(res.objectives) <= c.archive_capacity)
            igds.append(oracles.zdt1_igd(res.objectives))
        self.check(f"median IGD {np.median(igds):.4f} below {IGD_LIMIT}",
                   float(np.median(igds)) < IGD_LIMIT)
        self.same_as_first("rerun gives the same archives",
                           [None if r is None else r.objectives for r in results])


def built_design(rng, lo, hi):
    """In-bounds design meeting the ordering rules: rd <= ru level by level,
    crown thickness non-decreasing with depth, gamma in the lowest tenth of
    its range. Redrawn until its faces stay apart everywhere, which the
    volume oracle needs."""
    while True:
        x = lo + rng.random(20) * (hi - lo)
        x[0] = lo[0] + 0.1 * rng.random() * (hi[0] - lo[0])
        x[2:8] = np.maximum.accumulate(x[2:8])
        x[14:20] = lo[14:20] + rng.random(6) * (np.minimum(x[8:14], hi[14:20]) - lo[14:20])
        if oracles.faces_apart(x, **GEOMETRY):
            return x


def design_set(seed, lo, hi, n=sum(BATCHES)):
    """Uniform in-bounds draws at even rows, built designs at odd rows."""
    rng = np.random.default_rng(seed)
    return np.array([built_design(rng, lo, hi) if i % 2 else lo + rng.random(20) * (hi - lo)
                     for i in range(n)])


class DamEvaluate(Workload):
    """DamProblem.evaluate_batch over a fixed design set, no optimizer."""

    def config(self):
        return {"geometry": GEOMETRY}

    def setup(self, cfg):
        self.problem = archdam.make_problem(cfg)
        lo, hi = self.problem.bounds
        self.X = design_set(self.seed, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        self.built = np.arange(len(self.X)) % 2 == 1
        self.checked = False

    def round(self):
        out, start = [], 0
        for size in BATCHES:
            X = self.X[start:start + size]
            out.append(self.op(f"evaluate_batch of {size}", self.problem.evaluate_batch, X))
            self.tick()
            start += size
        return out

    def verify(self, out):
        ok = all(o is not None for o in out)
        F = np.vstack([o[0] for o in out]) if ok else None
        viol = np.concatenate([o[1] for o in out]) if ok else None
        self.same_as_first("rerun gives the same objectives", [F, viol])
        if self.checked:
            return
        self.checked = True
        for i, x in enumerate(self.X):
            if self.built[i]:
                v = oracles.dam_volume(x, **GEOMETRY)
                self.check(f"design {i}: fit1 matches the independent volume quadrature",
                           ok and abs(F[i, 0] - v) <= 1e-6 * v)
            bound = oracles.ordering_violation(x)
            self.check(f"design {i}: rd > ru means infeasible with violation >= sum(rd/ru - 1)",
                       ok and (bound == 0.0 or viol[i] >= bound * (1.0 - 1e-12)))
            e = self.op(f"evaluate design {i}", self.problem.evaluate, x)
            self.check(f"design {i}: evaluate_batch row equals evaluate",
                       ok and e is not None and _close([e.fit1, e.fit2, e.violation],
                                                       [F[i, 0], F[i, 1], viol[i]])
                       and e.feasible == (viol[i] == 0.0))


WORKLOADS = {
    "dam_optimize": DamOptimize,
    "zdt1_optimize": Zdt1Optimize,
    "dam_evaluate": DamEvaluate,
}
