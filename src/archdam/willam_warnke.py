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
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .schema import ConfigError, check

__all__ = [
    "StrengthParams",
    "WWCoefficients",
    "DegenerateStrengthError",
    "EvaluationError",
    "solve_coefficients",
    "criterion_values",
    "domain_codes",
    "hydrostatic_validity",
]

_SQ2_15 = math.sqrt(2.0 / 15.0)

DOMAIN_NAMES = ("CCC", "TCC", "TTC", "TTT")


def domain_codes(states):
    """Index into DOMAIN_NAMES of each sorted state, shape (..., 3); a
    state on a domain boundary goes to the more tensile domain."""
    s = np.asarray(states, dtype=float)
    return np.select([s[..., 2] >= 0.0, s[..., 1] > 0.0, s[..., 0] > 0.0],
                     [3, 2, 1], 0).astype(np.int8)


class DegenerateStrengthError(ValueError):
    """Calibration system is singular for the given strengths."""


class EvaluationError(ValueError):
    """Criterion evaluation produced a non-physical meridian value."""


class StrengthParams(namedtuple("StrengthParams", "f_c f_t f_cb f_1 f_2 sigma_h_a s_f")):
    """Concrete strength constants, MPa. Unsupplied triaxial constants
    default to the classic ratios f_cb = 1.2 f_c, f_1 = 1.45 f_c,
    f_2 = 1.725 f_c at the ambient hydrostatic state sigma_h_a = sqrt(3) f_c.
    The constructor fills those defaults, then checks the values against
    the schema's strength section and that f_t is below f_c; _make and
    _replace skip all of it, so build a new record with the constructor."""

    __slots__ = ()

    def __new__(cls, f_c=30.0, f_t=1.5, f_cb=None, f_1=None, f_2=None, sigma_h_a=None,
                s_f=1.0):
        self = check(super().__new__(cls, f_c, f_t,
                                     1.2 * f_c if f_cb is None else f_cb,
                                     1.45 * f_c if f_1 is None else f_1,
                                     1.725 * f_c if f_2 is None else f_2,
                                     math.sqrt(3.0) * f_c if sigma_h_a is None else sigma_h_a,
                                     s_f), "strength")
        if f_t >= f_c:
            raise ConfigError("$.strength.f_t is not below $.strength.f_c")
        return self


class WWCoefficients(NamedTuple):
    """Fitted meridian coefficients: r1 = a[0] + a[1] xi + a[2] xi^2, likewise r2 with b."""

    a: np.ndarray
    b: np.ndarray
    xi0: float


def _solve3(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # an overflowed entry would reach LAPACK, which prints to stdout
    if not (np.isfinite(M).all() and np.isfinite(rhs).all()):
        raise DegenerateStrengthError("calibration system overflows")
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
    return WWCoefficients(a=a, b=b, xi0=xi0)


def hydrostatic_validity(sigma, strength: StrengthParams):
    """True where |mean stress| <= sqrt(3) f_c (boundary inclusive)."""
    s = np.asarray(sigma, dtype=float)
    # the sum's own left-to-right order, divided by 3 as np.mean does,
    # without the reduction's short inner loop per state
    return np.abs(((s[..., 0] + s[..., 1]) + s[..., 2]) / 3.0) <= math.sqrt(3.0) * strength.f_c


def _meridian(r1, r2, cos_eta):
    """Elliptic blend between the tensile (r1) and compressive (r2) meridians."""
    c2 = cos_eta * cos_eta
    dd = r2 * r2 - r1 * r1
    ddc = 4.0 * dd * c2
    t = 2.0 * r1 - r2
    disc = ddc + 5.0 * r1 * r1 - 4.0 * r1 * r2
    # t**2 is (r2 - 2 r1)**2 exactly
    return (2.0 * r2 * dd * cos_eta + r2 * t * np.sqrt(np.maximum(disc, 0.0))) / (ddc + t**2)


def criterion_values(states, strength: StrengthParams, coeffs: WWCoefficients,
                     strict: bool = True):
    """Vectorized criterion for sorted states, shape (..., 3).

    Returns (margin, F_over_fc, S), each of shape states.shape[:-1]. The
    tension pass (TTC and TTT) runs on every state. The margins of the
    tensile components share S = (f_t/f_c)(1 + min(s3, 0)/f_c), which is
    f_t/f_c where s3 >= 0, so F/f_c is the largest component (the larger
    of s1 and s2 in TTC, where s3 < 0 < s2). The meridian pass runs on
    the compressive states (CCC and TCC) only, whose values replace
    those: TCC is CCC with s1 taken as 0 in the meridian abscissa and in
    F, and S scaled by (1 - s1/f_t). A CCC meridian that comes out
    non-positive (corrupted coefficients, or a state far outside the
    calibrated range) raises EvaluationError; with strict=False, S and
    the margin of that state are NaN instead.
    """
    fc, ft = strength.f_c, strength.f_t
    s = np.asarray(states, dtype=float).reshape(-1, 3)
    s1, s2, s3 = s[:, 0], s[:, 1], s[:, 2]
    f_over = np.maximum(np.maximum(s1, s2), s3) / fc
    s_term = (ft / fc) * (1.0 + np.minimum(s3, 0.0) / fc)

    comp = ~((s3 >= 0.0) | (s2 > 0.0))
    # the boolean row select, without the set-up cost of fancy indexing
    c = s.compress(comp, axis=0)
    a1, a2, a3 = c[:, 0], c[:, 1], c[:, 2]
    tcc = a1 > 0.0
    # s1 as it enters the meridian abscissa and F
    m1 = np.where(tcc, 0.0, a1)
    d23 = (a2 - a3) ** 2
    xi = (m1 + a2 + a3) / (3.0 * fc)
    xi2 = xi**2
    a_0, a_1, a_2 = coeffs.a.tolist()
    b_0, b_1, b_2 = coeffs.b.tolist()
    r1 = a_0 + a_1 * xi + a_2 * xi2
    r2 = b_0 + b_1 * xi + b_2 * xi2
    den = math.sqrt(2.0) * np.sqrt((a1 - a2) ** 2 + d23 + (a3 - a1) ** 2)
    # on the hydrostatic axis, 0/0, the tensile meridian: cos eta = 1
    cos_eta = np.divide(2.0 * a1 - a2 - a3, den, out=np.ones_like(den), where=den != 0.0)
    S = _meridian(r1, r2, cos_eta)
    bad = (S <= 0.0) & ~tcc
    if bad.any():
        if strict:
            raise EvaluationError("non-positive compressive meridian value")
        S[bad] = np.nan
    S *= np.where(tcc, 1.0 - a1 / ft, 1.0)
    f_over[comp] = np.sqrt(((m1 - a2) ** 2 + d23 + (a3 - m1) ** 2) / 15.0) / fc
    s_term[comp] = S
    margin = f_over - s_term / strength.s_f
    return tuple(v.reshape(np.shape(states)[:-1]) for v in (margin, f_over, s_term))
