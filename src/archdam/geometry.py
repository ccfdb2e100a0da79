"""Parabolic double-curvature arch dam geometry.

The dam is described by 20 shape variables: a crest overhang slope gamma,
a profile ratio beta, and crown thickness / upstream radius / downstream
radius at the six control levels level_depths(h), spaced evenly over the
dam height h that CanyonProfile holds. Thickness and radii are
interpolated over depth with a degree-5 Lagrange polynomial; both faces
are parabolic in the cross-valley coordinate:

    y_u = x^2 / (2 ru(z)) + g(z),   y_d = x^2 / (2 rd(z)) + g(z) + tc(z),

with the upstream crown curve g(z) = gamma z^2 / (2 beta h) - gamma z.

Coordinate frame: z measured downward from the crest (z = 0 crest,
z = h base), x across the valley, y positive downstream.

Every quantity is taken at a depth set fixed in advance and built once
from the canyon alone. DepthInterpolant holds one set's Lagrange basis
and its derivative, two (6, len(z)) matrices; VolumeQuadrature sums the
area between the faces, in closed form across the valley, over
Gauss-Legendre depths;
ConstraintDepths.sections takes the sections, face slopes and central
angle at the constraint depths, whose maxima are the constraints and
which the CLI tabulates.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

__all__ = [
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
    "level_depths",
]

DEFAULT_HEIGHT = 142.65  # m, Morrow Point dam
GAMMA_ALLOW = 0.65  # largest admissible overhang slope |dy/dz| of either face
QUADRATURE_ORDER = 32  # Gauss-Legendre depths of the volume rule

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


def level_depths(h: float) -> np.ndarray:
    """Depths of the six control levels of a dam of height h, crest first."""
    return np.linspace(0.0, h, 6)


class CanyonProfile(namedtuple("CanyonProfile", "h w_crest w_base")):
    """Symmetric trapezoidal valley of the dam's height h: half-width
    linear in depth. h is the one dam height; the control levels are
    level_depths(h). The constructor checks the values; _make and
    _replace do not, so build a new profile with the constructor."""

    __slots__ = ()

    def __new__(cls, h, w_crest, w_base):
        if h <= 0:
            raise ValueError("dam height must be positive")
        if w_crest <= 0 or w_base <= 0:
            raise ValueError("canyon half-widths must be positive")
        if w_base > w_crest:
            raise ValueError("canyon must not widen with depth")
        return super().__new__(cls, h, w_crest, w_base)

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


# _OTHERS[j]: the five levels other than level j; _PAIRS[j, i]: those
# without _OTHERS[j, i] as well. The factors of the Lagrange products and
# of the products their derivatives sum
_OTHERS = np.array([[k for k in range(6) if k != j] for j in range(6)])
_PAIRS = np.array([[[k for k in row if k != i] for i in row] for row in _OTHERS.tolist()])


class DepthInterpolant:
    """Interpolation from the six control levels of a dam of height h onto
    a fixed set of depths z, for any batch of designs.

    The interpolant of node values f is sum_j f_j l_j(z), with the
    Lagrange basis in product form, l_j(z) = prod_{k != j} (z - x_k) /
    prod_{k != j} (x_j - x_k), and its slope sum_j f_j l_j'(z), where
    l_j'(z) sums the products that leave out x_j and one more level.
    Both depend only on the depths, so they are built once here as (6,
    len(z)) matrices, `basis` and `slope_basis`; values() and slopes()
    then map node values of shape (..., 6) to (..., len(z)). At a depth
    on a level the numerator and denominator of l_j are the same product,
    so that column of `basis` is a column of the identity and the values
    there are the node values exactly.

    The maps are unoptimized np.einsum contractions, which add each
    output's six products in one fixed order: a batch and each of its
    rows give the same bits.
    """

    def __init__(self, h: float, z):
        x = level_depths(h)
        dz = np.asarray(z, dtype=float)[None, :] - x[:, None]
        den = np.prod(x[:, None] - x[_OTHERS], axis=1)[:, None]
        self.basis = dz[_OTHERS].prod(axis=1) / den
        self.slope_basis = dz[_PAIRS].prod(axis=2).sum(axis=1) / den

    def values(self, f):
        return np.einsum("...l,lk->...k", f, self.basis)

    def slopes(self, f):
        return np.einsum("...l,lk->...k", f, self.slope_basis)


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
    """The concrete volume: a Gauss-Legendre rule over `order` depths of the
    area between the faces, in closed form across the valley. At half-width
    w the thickness tc + a x^2 / 2, a = 1/rd - 1/ru, has the integral
    G(x) = tc x + a x^3 / 6, and the area is |2 G(w)|; where tc and edge =
    tc + a w^2 / 2 have strictly opposite signs, the faces cross at x0 and
    the area is 2 (|G(x0)| + |G(w) - G(x0)|): the crossed part counts as
    concrete. The depth sum is an unoptimized np.einsum, the same bits for a
    batch and for each of its rows."""

    def __init__(self, canyon: CanyonProfile, order: int):
        if order < 2:
            raise ValueError("quadrature order must be at least 2")
        t, w = _gauss_legendre(order)
        half_h = 0.5 * canyon.h
        zq = half_h + half_h * t
        half_width = canyon.half_width(zq)
        self._w2_6, self._w2_2 = half_width**2 / 6.0, half_width**2 / 2.0
        self._weights = 2.0 * half_width * (half_h * w)
        self.depths = DepthInterpolant(canyon.h, zq)

    def __call__(self, nodes):
        """Volumes, shape (n,), for the node values of tc, ru and rd
        stacked as shape (3, n, 6)."""
        tc, ru, rd = self.depths.values(nodes)
        # a = 1 / rd - 1 / ru, mean and edge are made in the ru and rd sections
        a = np.subtract(np.divide(1.0, rd, out=rd), np.divide(1.0, ru, out=ru), out=rd)
        # areas over the 2 w the weights carry: mean = G(w) / w, and where the
        # faces cross, x0 / w = sqrt(tc / (tc - edge)) and G(x0) = 2 tc x0 / 3
        mean = np.add(np.multiply(a, self._w2_6, out=ru), tc, out=ru)
        edge = np.add(np.multiply(a, self._w2_2, out=rd), tc, out=rd)
        cross = np.flatnonzero(tc * edge < 0.0)
        if cross.size:
            t, m = tc.take(cross), mean.take(cross)
            g0 = np.sqrt(t / (t - edge.take(cross))) * (t * (2.0 / 3.0))
            mean.put(cross, np.abs(m - g0) + np.abs(g0))
        np.abs(mean, out=mean)
        return np.einsum("ni,i->n", mean, self._weights)


class ConstraintDepths:
    """The geometric constraints, checked at CONSTRAINT_DEPTHS evenly
    spaced depths.

    Layout per design: 6 radius-ordering values rd_i/ru_i - 1, one
    overhang-slope value per face (worst over the depths), one
    central-angle value (worst over the depths, normalized by the 130
    degree ceiling), reduced from sections(). Feasible where <= 0.
    """

    def __init__(self, canyon: CanyonProfile):
        self.h = canyon.h
        self.z = np.linspace(0.0, canyon.h, CONSTRAINT_DEPTHS)
        self.half_width = canyon.half_width(self.z)
        self.depths = DepthInterpolant(canyon.h, self.z)

    def sections(self, gamma, beta, nodes):
        """The node rows interpolated to the depths, the upstream and
        downstream face slopes and the central angle in degrees, for gamma,
        beta of shape (n,) and node values of tc, ru (and any further
        rows) stacked as shape (k, n, 6)."""
        v = self.depths.values(nodes)
        s_u = crown_slope(self.z, gamma[:, None], beta[:, None], self.h)
        s_d = s_u + self.depths.slopes(nodes[0])
        return v, s_u, s_d, central_angle_deg(self.half_width, v[1])

    def __call__(self, gamma, beta, nodes, gamma_allow: float):
        """gamma, beta of shape (n,), node values of tc, ru and rd stacked
        as shape (3, n, 6) -> (n, 9)."""
        out = np.empty((len(gamma), 9))
        out[:, :6] = nodes[2] / nodes[1] - 1.0
        _, s_u, s_d, phi = self.sections(gamma, beta, nodes[:2])
        out[:, 6] = np.abs(s_u).max(axis=1) / gamma_allow - 1.0
        out[:, 7] = np.abs(s_d).max(axis=1) / gamma_allow - 1.0
        out[:, 8] = np.maximum(90.0 - phi, phi - 130.0).max(axis=1) / 130.0
        return out
