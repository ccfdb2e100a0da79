import warnings
from fractions import Fraction

import numpy as np
import pytest

from archdam import (
    CanyonProfile,
    ControlLevels,
    LOWER_BOUNDS,
    UPPER_BOUNDS,
    VARIABLE_NAMES,
)
from archdam.geometry import (
    DEFAULT_HEIGHT,
    GAMMA_ALLOW,
    QUADRATURE_ORDER,
    ConstraintDepths,
    DepthInterpolant,
    InvalidLevelsError,
    VolumeQuadrature,
    _gauss_legendre,
    central_angle_deg,
    crown_slope,
)

from _oracles import LagrangeInterpolant, lagrange_basis, mc_volume
from conftest import TABLE5


def _volume(x, canyon=None, order=QUADRATURE_ORDER):
    """The quadrature volume of one design of 20 values."""
    quad = VolumeQuadrature(ControlLevels.evenly_spaced(), canyon or CanyonProfile.default(),
                            order)
    return float(quad(x[2:].reshape(3, 1, 6))[0])


def _constraints(x, canyon=None):
    """The 9 geometric constraint values of one design of 20 values."""
    cons = ConstraintDepths(ControlLevels.evenly_spaced(), canyon or CanyonProfile.default())
    return cons(x[:1], x[1:2], x[2:].reshape(3, 1, 6), GAMMA_ALLOW)[0]


def test_variable_layout():
    assert len(VARIABLE_NAMES) == 20
    assert list(VARIABLE_NAMES[:2]) == ["gamma", "beta"]
    assert VARIABLE_NAMES[2] == "tc1" and VARIABLE_NAMES[7] == "tc6"
    assert VARIABLE_NAMES[8] == "ru1" and VARIABLE_NAMES[14] == "rd1"
    assert LOWER_BOUNDS.shape == (20,) and UPPER_BOUNDS.shape == (20,)
    assert np.all(LOWER_BOUNDS < UPPER_BOUNDS)


def test_control_levels_validation():
    with pytest.raises(InvalidLevelsError):
        ControlLevels(h=100.0, z=np.array([0.0, 50.0, 40.0, 60.0, 80.0, 100.0]))
    with pytest.raises(InvalidLevelsError):
        ControlLevels(h=-5.0, z=np.linspace(0, 100, 6))


def test_lagrange_cardinality():
    levels = ControlLevels.evenly_spaced()
    for i in range(1, 7):
        vals = lagrange_basis(levels.z, i, levels)
        expect = np.zeros(6)
        expect[i - 1] = 1.0
        assert np.allclose(vals, expect, atol=1e-12)
    with pytest.raises(IndexError):
        lagrange_basis(0.0, 0, levels)


def test_interpolation_reproduces_quintics():
    # quintic in the normalized depth, so values stay O(1) and the 1e-9
    # absolute tolerance is meaningful
    rng = np.random.default_rng(11)
    levels = ControlLevels.evenly_spaced()
    coeffs = rng.uniform(-2, 2, 6)
    poly = np.polynomial.Polynomial(coeffs)

    def f(z):
        return poly(z / levels.h) + 20.0

    zq = rng.uniform(0.0, levels.h, 100)
    values = DepthInterpolant(levels, zq).values(f(levels.z))
    assert np.max(np.abs(values - f(zq))) < 1e-9
    # derivative of the interpolant matches the quintic's as well
    dpoly = poly.deriv()
    zs = rng.uniform(0.0, levels.h, 50)
    slopes = DepthInterpolant(levels, zs, slopes=True).slopes(f(levels.z))
    assert np.max(np.abs(slopes - dpoly(zs / levels.h) / levels.h)) < 1e-9


def _fused_level_sums(ref, z):
    """The reference interpolant's values at off-level depths z, with each
    product r_j f_j added to the running sum unrounded, as a fused
    multiply-add does."""
    r = ref.w / (z[:, None] - ref.x)
    sums = []
    for row in r:
        acc = 0.0
        for rj, fj in zip(row, ref.f):
            acc = float(Fraction(rj) * Fraction(fj) + Fraction(acc))
        sums.append(acc)
    return np.array(sums) / r.sum(axis=1)


@pytest.mark.parametrize("depths", ["level hits", "no level hits", "level hits, zero weight sum"])
def test_depth_interpolant_equals_per_design_reference(depths):
    # the batched interpolant sums over the levels in the order of the
    # one-design reference, so the two agree bit for bit at any batch shape.
    # At h = 18.3465 the barycentric weights sum to exactly 0, which must
    # not reach a division at the depths that hit a level
    levels = ControlLevels.evenly_spaced(18.3465 if "zero" in depths else DEFAULT_HEIGHT)
    rng = np.random.default_rng(29)
    if depths.startswith("level hits"):
        z = np.concatenate([np.linspace(0.0, levels.h, 101), rng.uniform(0.0, levels.h, 20)])
    else:
        z = 0.5 * levels.h * (1.0 + np.polynomial.legendre.leggauss(32)[0])
    hits = np.isin(z, levels.z)
    assert hits.sum() == (0 if depths == "no level hits" else 6)
    if "zero" in depths:
        assert sum(LagrangeInterpolant(levels.z, np.zeros(6)).w) == 0.0
    # the first input's products r_j f_j, with f_j = (1 + 2**-30)**j, are
    # inexact, so level sums built with fused multiply-adds (one rounding
    # per term instead of two) land on other last bits at some depths
    fma_prone = (1.0 + 2.0**-30) ** np.arange(1, 7)
    ref = LagrangeInterpolant(levels.z, fma_prone)
    assert not np.array_equal(_fused_level_sums(ref, z[~hits]), ref(z[~hits]))
    interp = DepthInterpolant(levels, z, slopes=True)
    for f in [fma_prone] + [rng.uniform(-50.0, 150.0, shape) for shape in [(6,), (7, 6), (2, 7, 6)]]:
        shape = f.shape
        rows = f.reshape(-1, 6)
        ref = [LagrangeInterpolant(levels.z, row) for row in rows]
        values = np.array([r(z) for r in ref]).reshape(shape[:-1] + z.shape)
        slopes = np.array([r.derivative(z) for r in ref]).reshape(shape[:-1] + z.shape)
        cause = "; the level sums fuse multiply and add" if f is fma_prone else ""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(interp.values(f), values), f"{shape}{cause}"
            assert np.array_equal(interp.slopes(f), slopes), f"{shape}{cause}"
            assert np.array_equal(interp.slopes(f, interp.values(f)), slopes), f"{shape}{cause}"


def test_crown_profile_hand_values():
    # g(z) = gamma z^2 / (2 beta h) - gamma z: slope -gamma at the crest,
    # zero at its minimum, beta h
    assert crown_slope(0.0, 0.2, 0.5, 100.0) == pytest.approx(-0.2)
    assert crown_slope(50.0, 0.2, 0.5, 100.0) == pytest.approx(0.0, abs=1e-15)
    z = np.linspace(0, 100, 1001)
    g = 0.2 * z**2 / (2 * 0.5 * 100.0) - 0.2 * z
    # central differences are exact for a quadratic
    fd = (g[2:] - g[:-2]) / (z[2:] - z[:-2])
    assert np.allclose(crown_slope(z[1:-1], 0.2, 0.5, 100.0), fd, rtol=0, atol=1e-12)


def test_central_angle_definition():
    assert central_angle_deg(100.0, 100.0) == pytest.approx(90.0)
    assert central_angle_deg(100.0 * np.tan(np.radians(65.0)), 100.0) == pytest.approx(130.0)


def test_canyon_half_width_clipped_linear():
    c = CanyonProfile(h=100.0, w_crest=120.0, w_base=42.0)
    assert c.half_width(0.0) == pytest.approx(120.0)
    assert c.half_width(100.0) == pytest.approx(42.0)
    assert c.half_width(50.0) == pytest.approx(81.0)
    assert c.half_width(-5.0) == pytest.approx(120.0)
    assert c.half_width(130.0) == pytest.approx(42.0)


def test_constant_thickness_slab_volume():
    # ru = rd makes the faces parallel; rectangular canyon gives 2 w h t
    t, w, h = 7.5, 60.0, 142.65
    x = np.concatenate([[0.0, 0.5], np.full(6, t), np.full(6, 5000.0),
                        np.full(6, 5000.0)])
    canyon = CanyonProfile(h=h, w_crest=w, w_base=w)
    assert _volume(x, canyon) == pytest.approx(2 * w * h * t, rel=1e-12)


def test_volume_against_monte_carlo():
    v_mc = mc_volume(TABLE5, ControlLevels.evenly_spaced(), CanyonProfile.default(),
                     200_000, seed=5)
    assert _volume(TABLE5) == pytest.approx(v_mc, rel=0.02)


def test_gauss_legendre_rule_is_numpys_bytes():
    # the volume rule follows leggauss step for step, so every config's
    # volumes stay the same bits without the package loading numpy.polynomial
    for n in range(2, 257):
        t, w = _gauss_legendre(n)
        t_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert t.tobytes() == t_ref.tobytes() and w.tobytes() == w_ref.tobytes(), n


def test_volume_order_convergence():
    v32 = _volume(TABLE5, order=32)
    v64 = _volume(TABLE5, order=64)
    assert abs(v64 - v32) / v32 < 1e-3


def test_radius_ordering_constraint_value():
    x = TABLE5.copy()
    x[8], x[14] = 60.0, 50.0  # ru1 = 60, rd1 = 50
    cons = _constraints(x)
    assert cons[0] == pytest.approx(50.0 / 60.0 - 1.0)
    assert len(cons) == 9


def test_table5_feasible_under_defaults():
    assert np.all(_constraints(TABLE5) <= 0.0)
    levels = ControlLevels.evenly_spaced()
    zs = np.linspace(0.0, levels.h, 50)
    ru = DepthInterpolant(levels, zs).values(TABLE5[8:14])
    phi = central_angle_deg(CanyonProfile.default().half_width(zs), ru)
    assert phi.min() >= 90.0 and phi.max() <= 130.0


def test_angle_constraint_violated_when_canyon_too_narrow():
    narrow = CanyonProfile(h=142.65, w_crest=99.0, w_base=0.35 * 99.0)
    cons = _constraints(TABLE5, narrow)
    assert cons[8] > 0.0  # angle drops below the 90 degree floor
