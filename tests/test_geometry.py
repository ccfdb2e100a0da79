import numpy as np
import pytest

from archdam import (
    CanyonProfile,
    ControlLevels,
    DamGeometry,
    DesignVector,
    LOWER_BOUNDS,
    UPPER_BOUNDS,
    VARIABLE_NAMES,
)
from archdam.geometry import (
    DepthInterpolant,
    InvalidLevelsError,
    central_angle_deg,
    crown_profile_g,
)

from _oracles import LagrangeInterpolant, lagrange_basis, mc_volume
from conftest import TABLE5


def test_variable_layout():
    assert len(VARIABLE_NAMES) == 20
    assert list(VARIABLE_NAMES[:2]) == ["gamma", "beta"]
    assert VARIABLE_NAMES[2] == "tc1" and VARIABLE_NAMES[7] == "tc6"
    assert VARIABLE_NAMES[8] == "ru1" and VARIABLE_NAMES[14] == "rd1"
    assert LOWER_BOUNDS.shape == (20,) and UPPER_BOUNDS.shape == (20,)
    assert np.all(LOWER_BOUNDS < UPPER_BOUNDS)


def test_design_vector_round_trip():
    d = DesignVector.from_array(TABLE5)
    assert np.array_equal(d.to_array(), TABLE5)
    assert d.gamma == TABLE5[0] and d.beta == TABLE5[1]
    assert np.array_equal(d.tc, TABLE5[2:8])
    assert np.array_equal(d.ru, TABLE5[8:14])
    assert np.array_equal(d.rd, TABLE5[14:20])


def test_design_vector_rejects_wrong_length():
    with pytest.raises(ValueError):
        DesignVector.from_array(np.ones(19))


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

    x = np.concatenate([[1.0, 1.0], f(levels.z),
                        np.full(6, 100.0), np.full(6, 90.0)])
    geo = DamGeometry(design=DesignVector.from_array(x))
    zq = rng.uniform(0.0, levels.h, 100)
    assert np.max(np.abs(geo.tc(zq) - f(zq))) < 1e-9
    # derivative of the interpolant matches the quintic's as well
    dpoly = poly.deriv()
    zs = rng.uniform(0.0, levels.h, 50)
    s_u, s_d = geo.face_slopes(zs)  # the faces differ by tc, so by tc' in slope
    assert np.max(np.abs((s_d - s_u) - dpoly(zs / levels.h) / levels.h)) < 1e-9


@pytest.mark.parametrize("depths", ["level hits", "no level hits"])
def test_depth_interpolant_equals_per_design_reference(depths):
    # the batched interpolant sums over the levels in the order of the
    # one-design reference, so the two agree bit for bit at any batch shape
    levels = ControlLevels.evenly_spaced()
    rng = np.random.default_rng(29)
    if depths == "level hits":
        z = np.concatenate([np.linspace(0.0, levels.h, 101), rng.uniform(0.0, levels.h, 20)])
    else:
        z = 0.5 * levels.h * (1.0 + np.polynomial.legendre.leggauss(32)[0])
    hits = np.isin(z, levels.z).sum()
    assert hits == (6 if depths == "level hits" else 0)
    interp = DepthInterpolant(levels, z, slopes=True)
    for shape in [(6,), (7, 6), (2, 7, 6)]:
        f = rng.uniform(-50.0, 150.0, shape)
        rows = f.reshape(-1, 6)
        ref = [LagrangeInterpolant(levels.z, row) for row in rows]
        values = np.array([r(z) for r in ref]).reshape(shape[:-1] + z.shape)
        slopes = np.array([r.derivative(z) for r in ref]).reshape(shape[:-1] + z.shape)
        assert np.array_equal(interp.values(f), values), shape
        assert np.array_equal(interp.slopes(f), slopes), shape


def test_crown_profile_hand_values():
    # g(z) = gamma z^2 / (2 beta h) - gamma z: zero at crest, minimum at beta h
    assert crown_profile_g(0.0, 0.2, 0.5, 100.0) == 0.0
    assert crown_profile_g(50.0, 0.2, 0.5, 100.0) == pytest.approx(-5.0)
    z = np.linspace(0, 100, 1001)
    g = crown_profile_g(z, 0.2, 0.5, 100.0)
    assert z[np.argmin(g)] == pytest.approx(50.0, abs=0.1)


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
    geo = DamGeometry(design=DesignVector.from_array(x), canyon=canyon)
    assert geo.volume() == pytest.approx(2 * w * h * t, rel=1e-12)


def test_face_symmetry(table5_design):
    geo = DamGeometry(design=table5_design)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 60, 50)
    z = rng.uniform(0, 142.65, 50)
    yu1, yd1 = geo.faces(x, z)
    yu2, yd2 = geo.faces(-x, z)
    assert np.array_equal(yu1, yu2) and np.array_equal(yd1, yd2)


def test_volume_against_monte_carlo(table5_design):
    geo = DamGeometry(design=table5_design)
    v_quad = geo.volume()
    v_mc = mc_volume(geo, geo.canyon, 200_000, seed=5)
    assert v_quad == pytest.approx(v_mc, rel=0.02)


def test_volume_order_convergence(table5_design):
    geo = DamGeometry(design=table5_design)
    v32 = geo.volume(order=32)
    v64 = geo.volume(order=64)
    assert abs(v64 - v32) / v32 < 1e-3


def test_radius_ordering_constraint_value():
    x = TABLE5.copy()
    x[8], x[14] = 60.0, 50.0  # ru1 = 60, rd1 = 50
    geo = DamGeometry(design=DesignVector.from_array(x))
    cons = geo.geometric_constraints()
    assert cons[0] == pytest.approx(50.0 / 60.0 - 1.0)
    assert len(cons) == 9


def test_table5_feasible_under_defaults(table5_design):
    geo = DamGeometry(design=table5_design)
    cons = geo.geometric_constraints()
    assert np.all(cons <= 0.0)
    zs = np.linspace(0.0, 142.65, 50)
    phi = geo.central_angle(zs)
    assert phi.min() >= 90.0 and phi.max() <= 130.0


def test_angle_constraint_violated_when_canyon_too_narrow(table5_design):
    narrow = CanyonProfile(h=142.65, w_crest=99.0, w_base=0.35 * 99.0)
    geo = DamGeometry(design=table5_design, canyon=narrow)
    cons = geo.geometric_constraints()
    assert cons[8] > 0.0  # angle drops below the 90 degree floor
