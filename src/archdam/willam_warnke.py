"""Five-parameter Willam-Warnke failure criterion for concrete.

The criterion value is F/f_c - S/s_f for a sorted principal stress state
(tension positive, sigma1 >= sigma2 >= sigma3): negative is safe, zero is
on the failure surface, positive is failure. Four stress domains are
distinguished by the signs of the principal stresses; the compressive
domain uses two parabolic meridians r1 (tensile, cos eta = 1) and r2
(compressive, cos eta = 0.5) blended by an elliptic interpolation.

Coefficient calibration solves two 3x3 linear systems pinned to five
strength states: uniaxial tension, uniaxial compression, equal biaxial
compression, and two triaxial states on a superimposed hydrostatic
stress. The hydrostatic abscissae are computed from those stress states
directly, which makes every calibration state an exact root of the
fitted surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StrengthParams",
    "WWCoefficients",
    "DegenerateStrengthError",
    "EvaluationError",
    "solve_coefficients",
    "criterion_values",
    "evaluate_components",
    "hydrostatic_validity",
]

_SQ2_15 = math.sqrt(2.0 / 15.0)

DOMAIN_NAMES = ("CCC", "TCC", "TTC", "TTT")


class DegenerateStrengthError(ValueError):
    """Calibration system is singular for the given strengths."""


class EvaluationError(ValueError):
    """Criterion evaluation produced a non-physical meridian value."""


@dataclass(frozen=True)
class StrengthParams:
    """Concrete strength constants, MPa. Unsupplied triaxial constants
    default to the classic ratios f_cb = 1.2 f_c, f_1 = 1.45 f_c,
    f_2 = 1.725 f_c at the ambient hydrostatic state sigma_h_a = sqrt(3) f_c."""

    f_c: float = 30.0
    f_t: float = 1.5
    f_cb: float | None = None
    f_1: float | None = None
    f_2: float | None = None
    sigma_h_a: float | None = None
    s_f: float = 1.0

    def __post_init__(self):
        if self.f_c <= 0 or self.f_t <= 0:
            raise ValueError("strengths must be positive")
        if self.f_t >= self.f_c:
            raise ValueError("tensile strength must be below compressive")
        if self.f_cb is None:
            object.__setattr__(self, "f_cb", 1.2 * self.f_c)
        if self.f_1 is None:
            object.__setattr__(self, "f_1", 1.45 * self.f_c)
        if self.f_2 is None:
            object.__setattr__(self, "f_2", 1.725 * self.f_c)
        if self.sigma_h_a is None:
            object.__setattr__(self, "sigma_h_a", math.sqrt(3.0) * self.f_c)


@dataclass(frozen=True)
class WWCoefficients:
    """Fitted meridian coefficients: r1 = a[0] + a[1] xi + a[2] xi^2, likewise r2 with b."""

    a: np.ndarray
    b: np.ndarray
    xi0: float
    valid: bool = True
    warnings: tuple = field(default_factory=tuple)

    def r1(self, xi):
        return self.a[0] + self.a[1] * xi + self.a[2] * xi**2

    def r2(self, xi):
        return self.b[0] + self.b[1] * xi + self.b[2] * xi**2


def _solve3(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    scale = np.abs(M).max()
    if scale == 0.0 or np.linalg.cond(M) > 1e12:
        raise DegenerateStrengthError("singular calibration system")
    return np.linalg.solve(M, rhs)


def solve_coefficients(strength: StrengthParams) -> WWCoefficients:
    """Calibrate the six meridian coefficients from the strength constants."""
    fc, ft = strength.f_c, strength.f_t
    fcb, f1, f2 = strength.f_cb, strength.f_1, strength.f_2
    sha = strength.sigma_h_a

    # tensile-meridian states: (f_t,0,0), (0,-f_cb,-f_cb),
    # (-sha, -sha-f_1, -sha-f_1); xi is the mean stress over f_c
    xi_t = ft / (3.0 * fc)
    xi_cb = -2.0 * fcb / (3.0 * fc)
    xi_1 = -sha / fc - 2.0 * f1 / (3.0 * fc)
    Ma = np.array([[1.0, x, x * x] for x in (xi_t, xi_cb, xi_1)])
    rhs_a = _SQ2_15 * np.array([ft, fcb, f1]) / fc
    a = _solve3(Ma, rhs_a)

    # xi0: positive root of r1(xi) = 0; with two positive roots the smaller
    roots = np.roots(a[::-1])
    pos = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-12 and r.real > 0.0)
    if not pos:
        raise DegenerateStrengthError("tensile meridian has no positive root")
    xi0 = pos[0]

    # compressive-meridian states: (0,0,-f_c), (-sha,-sha,-sha-f_2),
    # plus the closure r2(xi0) = 0
    xi_2 = -sha / fc - f2 / (3.0 * fc)
    Mb = np.array(
        [
            [1.0, -1.0 / 3.0, 1.0 / 9.0],
            [1.0, xi_2, xi_2 * xi_2],
            [1.0, xi0, xi0 * xi0],
        ]
    )
    rhs_b = np.array([_SQ2_15, _SQ2_15 * f2 / fc, 0.0])
    b = _solve3(Mb, rhs_b)

    warnings = []
    if not (a[0] > 0 and a[1] <= 0 and a[2] <= 0):
        warnings.append("a-coefficient sign condition violated")
    if not (b[0] > 0 and b[1] <= 0 and b[2] <= 0):
        warnings.append("b-coefficient sign condition violated")
    xs = np.linspace(-1.0, xi_t, 100)
    ratio = (a[0] + a[1] * xs + a[2] * xs**2) / (b[0] + b[1] * xs + b[2] * xs**2)
    if not np.all((ratio > 0.5) & (ratio < 1.25)):
        warnings.append("convexity window r1/r2 violated in [-1, xi_t]")
    return WWCoefficients(a=a, b=b, xi0=xi0, valid=not warnings, warnings=tuple(warnings))


def hydrostatic_validity(sigma, strength: StrengthParams):
    """True where |mean stress| <= sqrt(3) f_c (boundary inclusive)."""
    s = np.asarray(sigma, dtype=float)
    sh = s.mean(axis=-1)
    return np.abs(sh) <= math.sqrt(3.0) * strength.f_c


def _cos_eta(s1, s2, s3):
    dev = (s1 - s2) ** 2 + (s2 - s3) ** 2 + (s3 - s1) ** 2
    num = 2.0 * s1 - s2 - s3
    den = math.sqrt(2.0) * np.sqrt(dev)
    # hydrostatic axis: 0/0, defined as the tensile meridian
    return np.where(den == 0.0, 1.0, num / np.where(den == 0.0, 1.0, den))


def _meridian(r1, r2, cos_eta):
    """Elliptic blend between the tensile (r1) and compressive (r2) meridians."""
    c2 = cos_eta * cos_eta
    dd = r2 * r2 - r1 * r1
    disc = 4.0 * dd * c2 + 5.0 * r1 * r1 - 4.0 * r1 * r2
    den = 4.0 * dd * c2 + (r2 - 2.0 * r1) ** 2
    return (2.0 * r2 * dd * cos_eta + r2 * (2.0 * r1 - r2) * np.sqrt(np.maximum(disc, 0.0))) / den


def evaluate_components(states, strength: StrengthParams, coeffs: WWCoefficients,
                        strict: bool = True):
    """Vectorized criterion for sorted states, shape (..., 3).

    Returns (margin, F_over_fc, S, domain_code) with domain codes indexing
    DOMAIN_NAMES. A compressive-domain meridian that comes out
    non-positive (corrupted coefficients, or a state far outside the
    calibrated range) raises EvaluationError; with strict=False, S and
    the margin of that state are NaN instead.
    """
    s = np.asarray(states, dtype=float)
    s1, s2, s3 = s[..., 0], s[..., 1], s[..., 2]
    fc, ft, sf = strength.f_c, strength.f_t, strength.s_f

    ttt = s3 >= 0.0
    ttc = ~ttt & (s2 > 0.0)
    tcc = ~ttt & ~ttc & (s1 > 0.0)
    ccc = ~(ttt | ttc | tcc)

    f_over = np.zeros_like(s1)
    s_term = np.zeros_like(s1)
    dom = np.zeros(s1.shape, dtype=np.int8)

    if np.any(ccc):
        a1, a2v, a3 = s1[ccc], s2[ccc], s3[ccc]
        xi = (a1 + a2v + a3) / (3.0 * fc)
        r1 = coeffs.r1(xi)
        r2 = coeffs.r2(xi)
        S = _meridian(r1, r2, _cos_eta(a1, a2v, a3))
        bad = S <= 0.0
        if np.any(bad):
            if strict:
                raise EvaluationError("non-positive compressive meridian value")
            S = np.where(bad, np.nan, S)
        F = np.sqrt(((a1 - a2v) ** 2 + (a2v - a3) ** 2 + (a3 - a1) ** 2) / 15.0)
        f_over[ccc] = F / fc
        s_term[ccc] = S
        dom[ccc] = 0

    if np.any(tcc):
        a1, a2v, a3 = s1[tcc], s2[tcc], s3[tcc]
        # mean of the two compressive components, normalized by f_c so the
        # meridian abscissa stays dimensionless
        chi = (a2v + a3) / (3.0 * fc)
        p1 = coeffs.r1(chi)
        p2 = coeffs.r2(chi)
        S = (1.0 - a1 / ft) * _meridian(p1, p2, _cos_eta(a1, a2v, a3))
        F = np.sqrt(((a2v - a3) ** 2 + a2v**2 + a3**2) / 15.0)
        f_over[tcc] = F / fc
        s_term[tcc] = S
        dom[tcc] = 1

    if np.any(ttc):
        # per-component margins share S; the worst is the largest tension
        S = (ft / fc) * (1.0 + s3[ttc] / fc)
        f_over[ttc] = np.maximum(s1[ttc], s2[ttc]) / fc
        s_term[ttc] = S
        dom[ttc] = 2

    if np.any(ttt):
        f_over[ttt] = np.maximum(np.maximum(s1[ttt], s2[ttt]), s3[ttt]) / fc
        s_term[ttt] = ft / fc
        dom[ttt] = 3

    return f_over - s_term / sf, f_over, s_term, dom


def criterion_values(states, strength: StrengthParams, coeffs: WWCoefficients,
                     strict: bool = True):
    """Margins only, for sorted states of shape (..., 3); strict as in
    evaluate_components."""
    return evaluate_components(states, strength, coeffs, strict)[0]
