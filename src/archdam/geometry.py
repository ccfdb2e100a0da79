"""Parabolic double-curvature arch dam geometry.

The dam is described by 20 shape variables: a crest overhang slope gamma,
a profile ratio beta, and crown thickness / upstream radius / downstream
radius at six control levels spaced evenly over the height. Thickness and
radii are interpolated over depth with a degree-5 Lagrange polynomial;
both faces are parabolic in the cross-valley coordinate:

    y_u = x^2 / (2 ru(z)) + g(z),   y_d = x^2 / (2 rd(z)) + g(z) + tc(z),

with the upstream crown curve g(z) = gamma z^2 / (2 beta h) - gamma z.

Coordinate frame: z measured downward from the crest (z = 0 crest,
z = h base), x across the valley, y positive downstream.

Every quantity is taken at a depth set fixed in advance, for any batch
of designs: DepthInterpolant holds the design-independent interpolation
terms of one depth set, and VolumeQuadrature and ConstraintDepths build
the volume and the geometric constraints on theirs. DamProblem builds
each of them once, and the CLI tabulates a design's sections through
the problem's ConstraintDepths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidLevelsError",
    "ControlLevels",
    "CanyonProfile",
    "DepthInterpolant",
    "VolumeQuadrature",
    "ConstraintDepths",
    "DEFAULT_HEIGHT",
    "GAMMA_ALLOW",
    "QUADRATURE_ORDER",
    "LOWER_BOUNDS",
    "UPPER_BOUNDS",
    "VARIABLE_NAMES",
    "crown_slope",
    "central_angle_deg",
]

DEFAULT_HEIGHT = 142.65  # m, Morrow Point dam
GAMMA_ALLOW = 0.65  # largest admissible overhang slope |dy/dz| of either face
QUADRATURE_ORDER = 32  # Gauss-Legendre points per axis of the volume rule

# evenly spaced depths at which the overhang-slope and central-angle
# constraints are taken
CONSTRAINT_DEPTHS = 50

VARIABLE_NAMES = (
    ["gamma", "beta"]
    + [f"tc{i}" for i in range(1, 7)]
    + [f"ru{i}" for i in range(1, 7)]
    + [f"rd{i}" for i in range(1, 7)]
)

# Variable bounds, ordered as VARIABLE_NAMES.
LOWER_BOUNDS = np.array(
    [0.0, 0.5, 3, 5, 7, 9, 11, 12, 104, 91, 78, 65, 52, 39, 104, 91, 78, 65, 52, 39],
    dtype=float,
)
UPPER_BOUNDS = np.array(
    [0.3, 1.0, 10, 14, 19, 23, 26, 31, 135, 118, 101, 85, 68, 51, 135, 118, 101, 85, 68, 51],
    dtype=float,
)


class InvalidLevelsError(ValueError):
    """Control levels are not strictly increasing."""


@dataclass(frozen=True)
class ControlLevels:
    """Depths of the interpolation control levels, crest first."""

    h: float
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if z.ndim != 1 or len(z) < 2 or np.any(np.diff(z) <= 0):
            raise InvalidLevelsError("control levels must be strictly increasing")
        if self.h <= 0:
            raise InvalidLevelsError("dam height must be positive")

    @classmethod
    def evenly_spaced(cls, h: float = DEFAULT_HEIGHT) -> "ControlLevels":
        """The six levels of the design vector, crest to base."""
        return cls(h=h, z=np.linspace(0.0, h, 6))

    @property
    def n_levels(self) -> int:
        return len(self.z)


@dataclass(frozen=True)
class CanyonProfile:
    """Symmetric trapezoidal valley: half-width linear in depth."""

    h: float
    w_crest: float
    w_base: float

    def __post_init__(self):
        if self.w_crest <= 0 or self.w_base <= 0:
            raise ValueError("canyon half-widths must be positive")
        if self.w_base > self.w_crest:
            raise ValueError("canyon must not widen with depth")

    @classmethod
    def default(cls, h: float = DEFAULT_HEIGHT) -> "CanyonProfile":
        """The default valley: half-width 135 m at the crest, 35% of that
        at the base."""
        return cls(h=h, w_crest=135.0, w_base=0.35 * 135.0)

    def half_width(self, z):
        z = np.asarray(z, dtype=float)
        return self.w_crest + (self.w_base - self.w_crest) * np.clip(z / self.h, 0.0, 1.0)


def crown_slope(z, gamma, beta, h: float):
    """Slope dg/dz of the upstream crown curve."""
    return gamma * np.asarray(z, dtype=float) / (beta * h) - gamma


def central_angle_deg(half_width, ru):
    """Tangent-angle definition of the arch central angle, degrees."""
    return np.degrees(2.0 * np.arctan(np.asarray(half_width, dtype=float) / np.asarray(ru, dtype=float)))


class DepthInterpolant:
    """Level interpolation onto a fixed set of depths, for any batch of designs.

    Barycentric second form, p(z) = sum_j r_j f_j / sum_j r_j with
    r_j = w_j / (z - x_j). The terms r and their row sums depend only on
    the depths, so they are computed once here; values() and slopes() then
    map node values of shape (..., n_levels) to (..., len(z)) in one
    pass. A depth within 1e-12 (relative to the dam height) of a level
    takes that level's value exactly; when every depth lies on a level,
    as the default stress depths do, values() is that lookup alone, and
    when none does, the off-level sums alone. slopes=True also stores the
    derivative terms: squared offsets, and differentiation-matrix rows for
    the depths that hit a level.

    The level sums are unoptimized np.einsum contractions: the products
    of a broadcast (r * f).sum(), added in the same left-to-right order,
    without its short inner loop per output value. The slope terms are
    laid out (n_levels, designs, len(z)) and updated in place, so their
    sum over the levels is a few whole-array adds. Either way the results
    are the same bit for bit as the one-design sums.
    """

    def __init__(self, levels: ControlLevels, z, slopes: bool = False):
        x = levels.z
        self.z = np.asarray(z, dtype=float)
        d = x[:, None] - x[None, :]
        np.fill_diagonal(d, 1.0)
        self._w = 1.0 / d.prod(axis=1)
        dz = self.z[None, :] - x[:, None]
        hit = np.abs(dz) <= 1e-12 * max(float(x[-1] - x[0]), 1.0)
        at = hit.any(axis=0)
        self._at = np.flatnonzero(at)
        self._node = hit[:, at].argmax(axis=0)
        self._at_only, self._off_only = bool(at.all()), not at.any()
        # the sums run over every depth. A depth on a level gets stand-in
        # terms, offsets and weights of 1, whose sum stays far from zero
        # (the weights w sum to about 1e-25); the value computed there is
        # then overwritten with the level's
        dz[:, at] = 1.0
        self._r = self._w[:, None] / dz
        self._r[:, at] = 1.0
        self._rsum = self._r.sum(axis=0)
        if slopes:
            self._wl = self._w[:, None, None]
            self._dz2 = (dz**2)[:, None, :]
            D = (self._w[None, :] / self._w[:, None]) / d
            np.fill_diagonal(D, 0.0)
            np.fill_diagonal(D, -D.sum(axis=1))
            self._d_at = D[self._node]

    def _sums(self, f):
        return np.einsum("...l,lk->...k", f, self._r) / self._rsum

    def values(self, f):
        if self._at_only:
            return f.take(self._node, axis=-1)
        out = self._sums(f)
        if not self._off_only:
            out[..., self._at] = f.take(self._node, axis=-1)
        return out

    def slopes(self, f, values=None):
        """Slopes of the interpolant of f; values, when given, are
        self.values(f) already computed, which spares its sums."""
        p = self._sums(f) if values is None else values
        fl = np.ascontiguousarray(f.reshape(-1, f.shape[-1]).T)
        t = p.reshape(-1, self.z.size) - fl[..., None]
        t *= self._wl
        t /= self._dz2
        out = (t.sum(axis=0) / self._rsum).reshape(p.shape)
        if not self._off_only:
            # stacked matmul makes the same BLAS matrix-vector call for each
            # design as for a lone one; a summed product or one matrix product
            # for the whole batch rounds differently in the last bit
            out[..., self._at] = np.matmul(self._d_at, f[..., None])[..., 0]
        return out


def _legval(x, c):
    """Legendre series with coefficients c (low degree first, at least
    two) at x, by Clenshaw recursion."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], the same bytes as
    numpy.polynomial.legendre.leggauss(order), which this follows step for
    step without importing numpy.polynomial: eigenvalues of the symmetric
    companion matrix of L_order, one Newton step, weights from
    L'_order L_(order-1) scaled to avoid overflow, then symmetrized and
    normalized to sum to 2. Needs order >= 2."""
    n = order
    c = np.zeros(n + 1)
    c[-1] = 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[: n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # L_n' = sum of (2k + 1) L_k over k = n-1, n-3, ...: the small whole
    # numbers legder computes
    der = np.zeros(n)
    der[n - 1 :: -2] = 2 * np.arange(n - 1, -1, -2) + 1
    dy, df = _legval(x, c), _legval(x, der)
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


class VolumeQuadrature:
    """Tensor-product Gauss-Legendre rule for the concrete volume: `order`
    depths, and at each depth `order` points across the canyon width.

    The (n, order, order) integrand is an np.einsum outer product of
    1/rd - 1/ru with x^2/2, the same single products as a broadcast
    multiply without its inner loop per depth, then tc is added and the
    absolute value taken in place."""

    def __init__(self, levels: ControlLevels, canyon: CanyonProfile, order: int):
        if order < 2:
            raise ValueError("quadrature order must be at least 2")
        t, w = _gauss_legendre(order)
        # the rule on [0, h] in depth, then on [-half_width, half_width]
        # across the valley at each depth: (order, order)
        half_h = 0.5 * levels.h
        zq, self._wz = half_h + half_h * t, half_h * w
        half_width = canyon.half_width(zq)[:, None]
        self._half_x2 = (half_width * t) ** 2 / 2.0
        self._wx = half_width * w
        self.depths = DepthInterpolant(levels, zq)

    def __call__(self, nodes):
        """Volumes, shape (n,), for the node values of tc, ru and rd
        stacked as shape (3, n, n_levels)."""
        tc, ru, rd = self.depths.values(nodes)
        thick = np.einsum("ni,ij->nij", 1.0 / rd - 1.0 / ru, self._half_x2)
        thick += tc[..., None]
        np.abs(thick, out=thick)
        return np.einsum("nij,ij,i->n", thick, self._wx, self._wz)


class ConstraintDepths:
    """The geometric constraints, checked at CONSTRAINT_DEPTHS evenly
    spaced depths.

    Layout per design: 6 radius-ordering values rd_i/ru_i - 1, one
    overhang-slope value per face (worst over the depths), one
    central-angle value (worst over the depths, normalized by the 130
    degree ceiling). Feasible where <= 0.
    """

    def __init__(self, levels: ControlLevels, canyon: CanyonProfile):
        self.h = levels.h
        self.z = np.linspace(0.0, levels.h, CONSTRAINT_DEPTHS)
        self.half_width = canyon.half_width(self.z)
        self.depths = DepthInterpolant(levels, self.z, slopes=True)

    def __call__(self, gamma, beta, nodes, gamma_allow: float):
        """gamma, beta of shape (n,), node values of tc, ru and rd stacked
        as shape (3, n, n_levels) -> (n, 9)."""
        out = np.empty((len(gamma), 9))
        out[:, :6] = nodes[2] / nodes[1] - 1.0
        v = self.depths.values(nodes[:2])
        tc, ru = v[0], v[1]
        s_u = crown_slope(self.z, gamma[:, None], beta[:, None], self.h)
        s_d = s_u + self.depths.slopes(nodes[0], tc)
        out[:, 6] = np.abs(s_u).max(axis=1) / gamma_allow - 1.0
        out[:, 7] = np.abs(s_d).max(axis=1) / gamma_allow - 1.0
        phi = central_angle_deg(self.half_width, ru)
        out[:, 8] = np.maximum(90.0 - phi, phi - 130.0).max(axis=1) / 130.0
        return out
