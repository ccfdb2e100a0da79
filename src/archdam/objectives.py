"""Two-objective constrained evaluation of dam designs, a batch at a time.

fit1 is the concrete volume in cubic meters; fit2 is the worst (largest)
Willam-Warnke margin over all stress sample points and load cases, so
negative fit2 means the whole body stays inside the failure surface.
Constraints are the geometric/stability set (radius ordering, overhang
slope, central angle) reduced to a single non-negative violation sum;
a design is feasible iff that sum is zero.

Degenerate designs are not an error: the design is marked infeasible
(violation + 1) and receives the configured penalty-ceiling objective
values. There are two kinds: "thickness" (a non-positive thickness or
radius at a stress depth) and "meridian" (a stress state whose
compressive Willam-Warnke meridian comes out non-positive, possible only
for thin sections outside the canonical bounds). The other designs of
the batch keep their values. DamProblem refuses, at construction,
bounds that admit a non-positive ru or rd at any of the radius-check
depths (over the canonical bounds the least value there is 21.29 m).

Every depth at which a design is looked at is fixed by the problem: the
constraint depths, the quadrature depths and the stress grid. DamProblem
builds their interpolation terms once, so evaluate_batch is one numpy
pass over all its designs, and evaluate is a batch of one. Stresses are
computed once per (face, depth) row of the grid
(stress_model.StressSurrogate): fit2 is the maximum over the rows, and
the validity-warning count counts each row n_arc times, once per grid
point it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .stress_model import ARC_STATIONS, GRID_DEPTHS, MOMENT_SHARE, LoadCase, StressSurrogate

__all__ = ["Evaluation", "DamProblem", "PENALTY_FIT1", "PENALTY_FIT2"]

# worst-case objective ceilings for degenerate designs
PENALTY_FIT1 = 3.4e5
PENALTY_FIT2 = 1.3

# how far outside its bounds a design value may lie and still be accepted
BOUND_SLACK = 1e-9

# evenly spaced depths at which ru and rd are checked positive
RADIUS_CHECK_DEPTHS = 101


@dataclass(frozen=True)
class Evaluation:
    """One design's result: the volume fit1 (m^3), the worst failure
    margin fit2, the total constraint violation and whether it is 0.
    diagnostics holds the nine constraint values and the count of grid
    states outside the hydrostatic range, or, for a degenerate design
    scored with the penalty objectives, its kind alone."""

    fit1: float
    fit2: float
    violation: float
    feasible: bool
    diagnostics: dict = field(default_factory=dict)


class _Batch(NamedTuple):
    F: np.ndarray  # (n, 2) objectives
    violation: np.ndarray  # (n,)
    constraints: np.ndarray  # (n, 9), finite for every row
    degenerate: np.ndarray  # (n,) None, "thickness" or "meridian"
    validity_warnings: np.ndarray  # (n,) grid states outside the hydrostatic range


@dataclass
class DamProblem:
    """Bundles geometry, stress surrogate, and failure criterion into the
    constrained two-objective evaluation used by the optimizer.

    canyon.h is the one dam height: the six control levels and every
    depth set are built from it. The geometry, grid and bounds fields are
    read once, at construction; to change one, build a new problem
    (dataclasses.replace). Bounds on ru and rd that admit a non-positive
    radius raise ValueError. stress_surrogate is built from n_depths and
    n_arc and holds the stress grid. The CLI tabulates a design through
    the same passes the evaluation makes: constraint_depths.sections,
    whose maxima are the slope and angle constraints, and stress_states,
    whose largest margin is fit2."""

    canyon: CanyonProfile = field(default_factory=CanyonProfile.default)
    strength: ww.StrengthParams = field(default_factory=ww.StrengthParams)
    load_cases: tuple = (
        LoadCase(kind="hydrostatic"),
        LoadCase(kind="pseudo_seismic"),
    )
    gamma_allow: float = GAMMA_ALLOW
    quadrature_order: int = QUADRATURE_ORDER
    n_depths: int = GRID_DEPTHS
    n_arc: int = ARC_STATIONS
    moment_share: float = MOMENT_SHARE
    penalty_fit1: float = PENALTY_FIT1
    penalty_fit2: float = PENALTY_FIT2
    lower: np.ndarray = field(default_factory=lambda: LOWER_BOUNDS.copy())
    upper: np.ndarray = field(default_factory=lambda: UPPER_BOUNDS.copy())

    def __post_init__(self):
        self.coeffs = ww.solve_coefficients(self.strength)
        # the least value an ru or rd interpolant takes at a radius-check
        # depth over every accepted design: sum_j min(l_j lo_j, l_j hi_j)
        # over the level weights l_j. It must be positive by a margin far
        # above rounding error (relative 1e-9 against about 1e-15), so that
        # no accepted design has a non-positive radius.
        h = self.canyon.h
        weights = DepthInterpolant(h, np.linspace(0.0, h, RADIUS_CHECK_DEPTHS)).values(np.eye(6))
        lo = (self.lower[8:] - BOUND_SLACK).reshape(2, -1, 1)
        hi = (self.upper[8:] + BOUND_SLACK).reshape(2, -1, 1)
        least = np.minimum(weights * lo, weights * hi).sum(axis=1)
        largest = (np.abs(weights) * np.maximum(np.abs(lo), np.abs(hi))).sum(axis=1)
        if not np.all(least > 1e-9 * largest):
            raise ValueError("the ru and rd bounds admit a non-positive radius")
        self._lowest = self.lower - BOUND_SLACK
        self._highest = self.upper + BOUND_SLACK
        self.constraint_depths = ConstraintDepths(self.canyon)
        self._volume = VolumeQuadrature(self.canyon, self.quadrature_order)
        self.stress_surrogate = StressSurrogate(self.canyon, self.n_depths, self.n_arc,
                                                self.load_cases, self.moment_share)
        self.stress_depths = DepthInterpolant(h, self.stress_surrogate.depths)

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

    def stress_states(self, nodes):
        """For node values of tc and ru stacked as shape (2, n, 6):
        the mask of the designs whose tc and ru are positive at every
        stress depth, and the surrogate's states of those designs only,
        shape (mask.sum(), n_rows, n_cases, 3)."""
        sections = self.stress_depths.values(nodes)  # (2, n, n_depths)
        ok = (sections.min(axis=2) > 0.0).all(axis=0)
        if not ok.all():
            sections = sections[:, ok]
        return ok, self.stress_surrogate(sections[0], sections[1])

    def _evaluate(self, X) -> _Batch:
        X = self.check_designs(X)
        n = len(X)
        gamma, beta = X[:, 0], X[:, 1]
        # node values of tc, ru and rd stacked: (3, n, 6)
        nodes = np.ascontiguousarray(X[:, 2:].reshape(n, 3, 6).transpose(1, 0, 2))
        degenerate = np.empty(n, dtype=object)  # object arrays start as None

        cons = self.constraint_depths(gamma, beta, nodes, self.gamma_allow)
        viol = np.maximum(cons, 0.0).sum(axis=1)
        fit1 = self._volume(nodes)

        thick_ok, states = self.stress_states(nodes[:2])
        all_thick = thick_ok.all()
        margins = ww.criterion_values(states, self.strength, self.coeffs, strict=False)
        invalid = ~ww.hydrostatic_validity(states, self.strength)
        # NaN where a compressive meridian came out non-positive
        fit2 = margins.max(axis=(1, 2))
        # each row stands for the n_arc points of its arc
        warnings = invalid.sum(axis=(1, 2)) * self.n_arc
        meridian_ok = ~np.isnan(fit2)

        if all_thick and meridian_ok.all():
            F = np.empty((n, 2))
            F[:, 0] = fit1
            F[:, 1] = fit2
            return _Batch(F, viol, cons, degenerate, warnings)

        # some row is degenerate: penalty objectives, violation + 1
        ok = thick_ok.copy()
        ok[thick_ok] = meridian_ok
        F = np.empty((n, 2))
        F[:] = (self.penalty_fit1, self.penalty_fit2)
        F[ok, 0] = fit1[ok]
        F[ok, 1] = fit2[meridian_ok]
        degenerate[~thick_ok] = "thickness"
        degenerate[thick_ok & ~ok] = "meridian"
        all_warnings = np.zeros(n, dtype=int)
        all_warnings[ok] = warnings[meridian_ok]
        return _Batch(F, np.where(ok, viol, viol + 1.0), cons, degenerate, all_warnings)

    def evaluate(self, design) -> Evaluation:
        """One design of 20 values, as a batch of one."""
        x = np.asarray(design, dtype=float)
        if x.shape != (20,):
            raise ValueError("design vector must have exactly 20 entries")
        b = self._evaluate(x[None, :])
        kind = b.degenerate[0]
        if kind is None:
            diagnostics = {
                "constraints": b.constraints[0].tolist(),
                "validity_warnings": int(b.validity_warnings[0]),
            }
        else:
            diagnostics = {"degenerate": kind}
        violation = float(b.violation[0])
        return Evaluation(
            fit1=float(b.F[0, 0]),
            fit2=float(b.F[0, 1]),
            violation=violation,
            feasible=violation == 0.0,
            diagnostics=diagnostics,
        )

    def evaluate_batch(self, X: np.ndarray):
        """(n, 20) designs -> objective array (n, 2) and violation array (n,)."""
        b = self._evaluate(X)
        return b.F, b.violation
