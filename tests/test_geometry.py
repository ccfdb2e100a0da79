import warnings
from fractions import Fraction

import numpy as np
import pytest

from archdam import (
    CanyonProfile,
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
    VolumeQuadrature,
    _gauss_legendre,
    central_angle_deg,
    crown_slope,
    level_depths,
)

from _oracles import (
    LagrangeInterpolant,
    dense_volume,
    exact_lagrange,
    faces_cross,
    gauss_legendre_volume,
    lagrange_basis,
    mc_volume,
)
from conftest import TABLE5


def _volume(x, canyon=None, order=QUADRATURE_ORDER):
    """The quadrature volume of one design of 20 values."""
    quad = VolumeQuadrature(canyon or CanyonProfile.default(), order)
    return float(quad(x[2:].reshape(3, 1, 6))[0])


def _constraints(x, canyon=None):
    """The 9 geometric constraint values of one design of 20 values."""
    cons = ConstraintDepths(canyon or CanyonProfile.default())
    return cons(x[:1], x[1:2], x[2:].reshape(3, 1, 6), GAMMA_ALLOW)[0]


def test_variable_layout():
    assert len(VARIABLE_NAMES) == 20
    assert list(VARIABLE_NAMES[:2]) == ["gamma", "beta"]
    assert VARIABLE_NAMES[2] == "tc1" and VARIABLE_NAMES[7] == "tc6"
    assert VARIABLE_NAMES[8] == "ru1" and VARIABLE_NAMES[14] == "rd1"
    assert LOWER_BOUNDS.shape == (20,) and UPPER_BOUNDS.shape == (20,)
    assert np.all(LOWER_BOUNDS < UPPER_BOUNDS)


def test_canyon_height_validation():
    with pytest.raises(ValueError, match="^dam height must be positive$"):
        CanyonProfile(h=-5.0, w_crest=50.0, w_base=40.0)
    # the height is checked first, so a config's message names it alone
    with pytest.raises(ValueError, match="^dam height must be positive$"):
        CanyonProfile(h=0.0, w_crest=-1.0, w_base=40.0)
    # the checks hold for positional arguments as well
    with pytest.raises(ValueError, match="^dam height must be positive$"):
        CanyonProfile(-5.0, 50.0, 40.0)
    with pytest.raises(ValueError, match="^canyon must not widen with depth$"):
        CanyonProfile(100.0, 50.0, 60.0)


def test_lagrange_cardinality():
    levels = level_depths(DEFAULT_HEIGHT)
    for i in range(1, 7):
        vals = lagrange_basis(levels, i, levels)
        expect = np.zeros(6)
        expect[i - 1] = 1.0
        assert np.allclose(vals, expect, atol=1e-12)
    with pytest.raises(IndexError):
        lagrange_basis(0.0, 0, levels)


def test_interpolation_reproduces_quintics():
    # quintic in the normalized depth, so values stay O(1) and the 1e-9
    # absolute tolerance is meaningful
    rng = np.random.default_rng(11)
    h, levels = DEFAULT_HEIGHT, level_depths(DEFAULT_HEIGHT)
    coeffs = rng.uniform(-2, 2, 6)
    poly = np.polynomial.Polynomial(coeffs)

    def f(z):
        return poly(z / h) + 20.0

    zq = rng.uniform(0.0, h, 100)
    values = DepthInterpolant(h, zq).values(f(levels))
    assert np.max(np.abs(values - f(zq))) < 1e-9
    # derivative of the interpolant matches the quintic's as well
    dpoly = poly.deriv()
    zs = rng.uniform(0.0, h, 50)
    slopes = DepthInterpolant(h, zs).slopes(f(levels))
    assert np.max(np.abs(slopes - dpoly(zs / h) / h)) < 1e-9


# measured worst differences from the exact interpolant over the four
# heights and depth sets below: 7.9e-16 max|f| for values, 1.8e-14
# max|f| / h for slopes
VALUE_TOL, SLOPE_TOL = 2e-15, 5e-14
# the barycentric interpolant differs by up to 1.2e-15 and 1.6e-13 on the
# depth sets of test_depth_interpolant_equals_per_design_reference, its own
# slope error near a level included
BARYCENTRIC_VALUE_TOL, BARYCENTRIC_SLOPE_TOL = 4e-15, 5e-13


def _basis_depth_sets(h):
    levels = level_depths(h)
    return {
        "101 even": np.linspace(0.0, h, 101),
        "uniform": np.random.default_rng(31).uniform(0.0, h, 60),
        "256 Gauss-Legendre": 0.5 * h * (1.0 + np.polynomial.legendre.leggauss(256)[0]),
        "1e-9 h off the interior levels": np.concatenate([levels[1:5] - 1e-9 * h,
                                                          levels[1:5] + 1e-9 * h]),
    }


@pytest.mark.parametrize("h", [DEFAULT_HEIGHT, 18.3465, 15.0, 500.0])
def test_basis_matches_exact_lagrange(h):
    # the basis itself (F = I) and random node rows against exact rational
    # Lagrange values and slopes, and exact identity columns at the levels.
    # The barycentric slope, which divides by the squared offsets from the
    # levels, misses the slope tolerance by far near a level; at
    # h = 18.3465 the barycentric weights sum to 0
    levels = level_depths(h)
    F = np.vstack([np.eye(6), np.random.default_rng(7).uniform(-50.0, 150.0, (3, 6))])
    scale = np.abs(F).max(axis=1)[:, None]
    for name, z in _basis_depth_sets(h).items():
        interp = DepthInterpolant(h, z)
        values, slopes = exact_lagrange(levels, F, z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.abs(interp.values(F) - values) <= VALUE_TOL * scale), name
            assert np.all(np.abs(interp.slopes(F) - slopes) <= SLOPE_TOL * scale / h), name
        assert np.array_equal(interp.values(np.eye(6)), interp.basis), name
        assert np.array_equal(interp.slopes(np.eye(6)), interp.slope_basis), name
        if name.startswith("1e-9"):
            barycentric = LagrangeInterpolant(levels, F[-1]).derivative(z)
            assert np.abs(barycentric - slopes[-1]).max() > 1e3 * SLOPE_TOL * scale[-1, 0] / h
    # a depth on a level takes the node values exactly: the default stress
    # depths are the levels
    z = np.linspace(0.0, h, 101)
    assert np.array_equal(DepthInterpolant(h, z).basis[:, ::20], np.eye(6))


def _fused_level_sums(f, basis):
    """The level sums of node values f against a basis, with each product
    f_j B_jk added to the running sum unrounded, as a fused multiply-add
    does."""
    sums = []
    for column in basis.T:
        acc = 0.0
        for fj, bj in zip(f, column):
            acc = float(Fraction(fj) * Fraction(bj) + Fraction(acc))
        sums.append(acc)
    return np.array(sums)


@pytest.mark.parametrize("depths", ["level hits", "no level hits", "level hits, zero weight sum"])
def test_depth_interpolant_equals_per_design_reference(depths):
    # the batched interpolant adds each output's products in level order,
    # so any batch shape gives the bits of one design's sums, and within
    # the stated tolerances the barycentric per-design interpolant. At
    # h = 18.3465 the barycentric weights sum to exactly 0
    h = 18.3465 if "zero" in depths else DEFAULT_HEIGHT
    levels = level_depths(h)
    rng = np.random.default_rng(29)
    if depths.startswith("level hits"):
        z = np.concatenate([np.linspace(0.0, h, 101), rng.uniform(0.0, h, 20)])
    else:
        z = 0.5 * h * (1.0 + np.polynomial.legendre.leggauss(32)[0])
    assert np.isin(z, levels).sum() == (0 if depths == "no level hits" else 6)
    if "zero" in depths:
        assert sum(LagrangeInterpolant(levels, np.zeros(6)).w) == 0.0
    interp = DepthInterpolant(h, z)
    # the first input's products f_j B_jk, with f_j = (1 + 2**-30)**j, are
    # inexact, so level sums built with fused multiply-adds (one rounding
    # per term instead of two) land on other last bits at some depths
    fma_prone = (1.0 + 2.0**-30) ** np.arange(1, 7)
    assert not np.array_equal(_fused_level_sums(fma_prone, interp.basis),
                              sum(fma_prone[j] * interp.basis[j] for j in range(6)))
    for f in [fma_prone] + [rng.uniform(-50.0, 150.0, shape) for shape in [(6,), (7, 6), (2, 7, 6)]]:
        shape = f.shape
        rows = f.reshape(-1, 6)
        cause = "; the level sums fuse multiply and add" if f is fma_prone else ""
        for basis, get in ((interp.basis, interp.values), (interp.slope_basis, interp.slopes)):
            one = np.array([sum(row[j] * basis[j] for j in range(6)) for row in rows])
            assert np.array_equal(get(f), one.reshape(shape[:-1] + z.shape)), f"{shape}{cause}"
        scale = np.abs(rows).max(axis=1)[:, None]
        ref = [LagrangeInterpolant(levels, row) for row in rows]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.array([r(z) for r in ref])
            slopes = np.array([r.derivative(z) for r in ref])
        assert np.all(np.abs(interp.values(rows) - values) <= BARYCENTRIC_VALUE_TOL * scale)
        assert np.all(np.abs(interp.slopes(rows) - slopes) <= BARYCENTRIC_SLOPE_TOL * scale / h)


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
    v_mc = mc_volume(TABLE5, CanyonProfile.default(), 200_000, seed=5)
    assert _volume(TABLE5) == pytest.approx(v_mc, rel=0.02)


def _draws(n, seed, order=QUADRATURE_ORDER):
    """n uniform designs in the canonical box, split into those whose faces
    keep apart at every depth of the order's rule and those whose faces
    cross."""
    canyon = CanyonProfile.default()
    X = LOWER_BOUNDS + np.random.default_rng(seed).random((n, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    cross = np.array([faces_cross(canyon, order, x) for x in X])
    return X[~cross], X[cross]


@pytest.mark.parametrize("order", [QUADRATURE_ORDER, 31])
def test_closed_form_matches_gauss_legendre_rule_where_faces_keep_apart(order):
    # the tensor-product rule integrates the parabolic thickness exactly,
    # up to rounding, where it keeps its sign across the valley
    canyon = CanyonProfile.default()
    apart, _ = _draws(400, 26, order)
    assert len(apart) > 100
    for x in apart:
        ref = gauss_legendre_volume(canyon, order, x)
        assert abs(_volume(x, order=order) - ref) <= 1e-13 * ref


def test_crossing_faces_volume_matches_dense_integral():
    # where the faces cross, the crossed part is charged as concrete: the
    # area of each section is the integral of |y_d - y_u| across the valley
    canyon = CanyonProfile.default()
    _, crossing = _draws(40, 27)
    assert len(crossing) >= 10
    for x in crossing[:10]:
        ref = dense_volume(canyon, QUADRATURE_ORDER, x)
        assert abs(_volume(x) - ref) <= 1e-9 * ref
        # the rule on the kinked integrand is off by more than that
        assert abs(gauss_legendre_volume(canyon, QUADRATURE_ORDER, x) - ref) > 1e-9 * ref


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
    zs = np.linspace(0.0, DEFAULT_HEIGHT, 50)
    ru = DepthInterpolant(DEFAULT_HEIGHT, zs).values(TABLE5[8:14])
    phi = central_angle_deg(CanyonProfile.default().half_width(zs), ru)
    assert phi.min() >= 90.0 and phi.max() <= 130.0


def test_angle_constraint_violated_when_canyon_too_narrow():
    narrow = CanyonProfile(h=142.65, w_crest=99.0, w_base=0.35 * 99.0)
    cons = _constraints(TABLE5, narrow)
    assert cons[8] > 0.0  # angle drops below the 90 degree floor
