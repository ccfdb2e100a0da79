"""Two-objective constrained evaluation of dam designs, a batch at a time.

fit1 is the concrete volume in cubic meters; fit2 is the worst (largest)
Willam-Warnke margin over all stress sample points and load cases, so
negative fit2 means the whole body stays inside the failure surface.
Constraints are the geometric/stability set (radius ordering, overhang
slope, central angle) reduced to a single non-negative violation sum;
a design is feasible iff that sum is zero.

Degenerate designs are not an error: a design with a stress state whose
compressive Willam-Warnke meridian comes out non-positive ("meridian",
possible only for thin sections outside the canonical bounds) is marked
infeasible (violation + 1) and receives the configured penalty-ceiling
objective values. The other designs of the batch keep their values.
DamProblem refuses, at construction, bounds that admit a non-positive
ru or rd at any of the radius-check depths (over the canonical bounds
the least value there is 21.29 m) and tc bounds that admit a
non-positive thickness at a control level.

Every depth set (constraints, volume) is built once with the problem, so
evaluate_batch is one numpy pass over all its designs and evaluate is a
batch of one. Stresses are computed once per (face, depth) row and load
case (stress_model.StressSurrogate), whose depths are the control
levels, straight from the node values of tc and ru: fit2 is the maximum
over these states, and the validity-warning count counts each state
outside the hydrostatic range once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import willam_warnke as ww
from .geometry import (
    CanyonProfile,
    ConstraintDepths,
    DepthInterpolant,
    GAMMA_ALLOW,
    LOWER_BOUNDS,
    QUADRATURE_ORDER,
    UPPER_BOUNDS,
    VARIABLE_NAMES,
    VolumeQuadrature,
)
from .schema import check
from .stress_model import MOMENT_SHARE, LoadCase, StressSurrogate

__all__ = ["Evaluation", "DamProblem", "PENALTY_FIT1", "PENALTY_FIT2"]

# worst-case objective ceilings for degenerate designs
PENALTY_FIT1 = 3.4e5
PENALTY_FIT2 = 1.3

# how far outside its bounds a design value may lie and still be accepted
BOUND_SLACK = 1e-9

# evenly spaced depths at which ru and rd are checked positive
RADIUS_CHECK_DEPTHS = 101


class Evaluation(NamedTuple):
    """One design's result: the volume fit1 (m^3), the worst failure
    margin fit2, the total constraint violation and whether it is 0.
    diagnostics holds the nine constraint values and the count of stress
    states outside the hydrostatic range, or, for a degenerate design
    scored with the penalty objectives, its kind alone."""

    fit1: float
    fit2: float
    violation: float
    feasible: bool
    diagnostics: dict


class _Batch(NamedTuple):
    F: np.ndarray  # (n, 2) objectives
    violation: np.ndarray  # (n,)
    constraints: np.ndarray  # (n, 9), finite for every row
    degenerate: np.ndarray  # (n,) None or "meridian"
    validity_warnings: np.ndarray  # (n,) stress states outside the hydrostatic range


class DamProblem:
    """Bundles geometry, stress surrogate, and failure criterion into the
    constrained two-objective evaluation used by the optimizer.

    canyon.h is the one dam height: the six control levels and every
    depth set are built from it. The geometry, grid and bounds attributes
    are read once, at construction; to change one, build a new problem.
    The scalar keywords are checked against the schema's problem section.
    lower and upper, which may lie outside the canonical box, are not;
    they default to copies of the canonical bounds. Bounds on ru and rd
    that admit a non-positive radius, and tc bounds that admit a
    non-positive level thickness, raise ValueError. The CLI tabulates a
    design through the same passes the evaluation makes:
    constraint_depths.sections, whose maxima are the slope and angle
    constraints, and stress_surrogate, whose states' largest margin is
    fit2."""

    load_cases = (LoadCase(kind="hydrostatic"), LoadCase(kind="pseudo_seismic"))

    def __init__(self, *, canyon=CanyonProfile.default(), strength=ww.StrengthParams(),
                 load_cases=load_cases, gamma_allow=GAMMA_ALLOW,
                 quadrature_order=QUADRATURE_ORDER, moment_share=MOMENT_SHARE,
                 penalty_fit1=PENALTY_FIT1, penalty_fit2=PENALTY_FIT2, lower=None, upper=None):
        check({"gamma_allow": gamma_allow, "moment_share": moment_share,
               "quadrature_order": quadrature_order, "penalty_fit1": penalty_fit1,
               "penalty_fit2": penalty_fit2}, "problem")
        self.canyon = canyon
        self.strength = strength
        self.load_cases = load_cases
        self.gamma_allow = gamma_allow
        self.quadrature_order = quadrature_order
        self.moment_share = moment_share
        self.penalty_fit1 = penalty_fit1
        self.penalty_fit2 = penalty_fit2
        self.lower = LOWER_BOUNDS.copy() if lower is None else lower
        self.upper = UPPER_BOUNDS.copy() if upper is None else upper
        self.coeffs = ww.solve_coefficients(self.strength)
        # the least value an ru or rd interpolant takes at a radius-check
        # depth over every accepted design: sum_j min(l_j lo_j, l_j hi_j)
        # over the level weights l_j. It must be positive by a margin far
        # above rounding error (relative 1e-9 against about 1e-15), so that
        # no accepted design has a non-positive radius.
        h = self.canyon.h
        weights = DepthInterpolant(h, np.linspace(0.0, h, RADIUS_CHECK_DEPTHS)).basis
        lo = (self.lower[8:] - BOUND_SLACK).reshape(2, -1, 1)
        hi = (self.upper[8:] + BOUND_SLACK).reshape(2, -1, 1)
        least = np.minimum(weights * lo, weights * hi).sum(axis=1)
        largest = (np.abs(weights) * np.maximum(np.abs(lo), np.abs(hi))).sum(axis=1)
        if not np.all(least > 1e-9 * largest):
            raise ValueError("the ru and rd bounds admit a non-positive radius")
        self._lowest = self.lower - BOUND_SLACK
        self._highest = self.upper + BOUND_SLACK
        # the stresses divide by tc at the levels
        if not np.all(self._lowest[2:8] > 0.0):
            raise ValueError("the tc bounds admit a non-positive thickness")
        self.constraint_depths = ConstraintDepths(self.canyon)
        self._volume = VolumeQuadrature(self.canyon, self.quadrature_order)
        self.stress_surrogate = StressSurrogate(self.canyon, self.load_cases, self.moment_share)

    @property
    def bounds(self):
        return self.lower, self.upper

    @property
    def hv_reference(self):
        """Hypervolume corner for the progress log: the penalty ceilings,
        so every admissible point lies inside it."""
        return (self.penalty_fit1, self.penalty_fit2)

    def check_designs(self, X) -> np.ndarray:
        """(n, 20) float designs; ValueError naming the first row and
        variable that is non-finite or outside the bounds."""
        X = np.asarray(X, dtype=float)
        if X.size == 0:
            X = X.reshape(0, 20)
        if X.ndim != 2 or X.shape[1] != 20:
            raise ValueError(f"designs must form an (n, 20) array, got shape {X.shape}")
        ok = np.isfinite(X)
        ok &= X >= self._lowest
        ok &= X <= self._highest
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise ValueError(f"design row {i}: {VARIABLE_NAMES[j]} = {X[i, j]} is not a "
                             f"finite value within [{self.lower[j]}, {self.upper[j]}]")
        return X

    def _evaluate(self, X) -> _Batch:
        X = self.check_designs(X)
        n = len(X)
        # node values of tc, ru and rd stacked: (3, n, 6)
        nodes = np.ascontiguousarray(X[:, 2:].reshape(n, 3, 6).transpose(1, 0, 2))
        degenerate = np.empty(n, dtype=object)  # object arrays start as None

        cons = self.constraint_depths(X[:, 0], X[:, 1], nodes, self.gamma_allow)
        viol = np.maximum(cons, 0.0).sum(axis=1)
        fit1 = self._volume(nodes)

        states = self.stress_surrogate(nodes[0], nodes[1])
        margins = ww.criterion_values(states, self.strength, self.coeffs, strict=False)[0]
        invalid = ~ww.hydrostatic_validity(states, self.strength)
        F = np.empty((n, 2))
        F[:, 0] = fit1
        # NaN where a compressive meridian came out non-positive
        F[:, 1] = margins.max(axis=(1, 2))
        warnings = invalid.sum(axis=(1, 2))

        bad = np.isnan(F[:, 1])
        if bad.any():  # penalty objectives, violation + 1
            F[bad] = (self.penalty_fit1, self.penalty_fit2)
            degenerate[bad] = "meridian"
            warnings[bad] = 0
            viol = np.where(bad, viol + 1.0, viol)
        return _Batch(F, viol, cons, degenerate, warnings)

    def evaluate(self, design) -> Evaluation:
        """One design of 20 values, as a batch of one."""
        x = np.asarray(design, dtype=float)
        if x.shape != (20,):
            raise ValueError("design vector must have exactly 20 entries")
        b = self._evaluate(x[None, :])
        kind = b.degenerate[0]
        diagnostics = {"degenerate": kind} if kind is not None else {
            "constraints": b.constraints[0].tolist(),
            "validity_warnings": int(b.validity_warnings[0])}
        violation = float(b.violation[0])
        return Evaluation(fit1=float(b.F[0, 0]), fit2=float(b.F[0, 1]), violation=violation,
                          feasible=violation == 0.0, diagnostics=diagnostics)

    def evaluate_batch(self, X: np.ndarray):
        """(n, 20) designs -> objective array (n, 2) and violation array (n,)."""
        b = self._evaluate(X)
        return b.F, b.violation
