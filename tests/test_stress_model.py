import numpy as np
import pytest

from archdam import CanyonProfile, DamGeometry, DesignVector, LoadCase, evaluate_stresses
from archdam.geometry import DegenerateGeometryError
from archdam.stress_model import (GRAVITY, MOMENT_SHARE, StressSurrogate, _sorted_states,
                                  sample_grid)

from _oracles import surrogate_states


def _constant_geometry(tc=12.5, ru=100.0, rd=90.0):
    return DamGeometry(DesignVector(
        gamma=0.0, beta=0.5, tc=[tc] * 6, ru=[ru] * 6, rd=[rd] * 6))


def _canyon(h=142.65):
    return CanyonProfile.default(h)


def _point(z, face="up"):
    return np.array([0.0]), np.array([float(z)]), np.array([face])


def test_thin_ring_hoop_hand_value():
    # p = rho_w g z = 0.981 MPa at 100 m depth; hoop = -p ru / tc
    geo = _constant_geometry(tc=12.5, ru=100.0)
    field = evaluate_stresses(geo, _canyon(), [LoadCase(kind="hydrostatic")],
                              grid=_point(100.0))
    s = field.states[0, 0]
    assert s[2] == pytest.approx(-7.848, rel=1e-12)
    bend = 0.02 * 1000.0 * GRAVITY * 100.0**3 / 12.5**2 / 1e6
    weight = -2400.0 * GRAVITY * 100.0 / 1e6
    assert s[1] == pytest.approx(weight + bend, rel=1e-12)
    assert s[0] == 0.0


def test_crest_is_unstressed():
    geo = _constant_geometry()
    field = evaluate_stresses(geo, _canyon(), [LoadCase(kind="hydrostatic")],
                              grid=_point(0.0))
    assert np.array_equal(field.states[0, 0], np.zeros(3))


def test_gravity_case_is_uniaxial():
    geo = _constant_geometry()
    field = evaluate_stresses(geo, _canyon(), [LoadCase(kind="gravity")],
                              grid=_point(100.0))
    s = field.states[0, 0]
    assert s[0] == 0.0 and s[1] == 0.0
    assert s[2] == pytest.approx(-2400.0 * GRAVITY * 100.0 / 1e6, rel=1e-12)


def test_empty_reservoir_matches_gravity():
    geo = _constant_geometry()
    canyon = _canyon()
    grid = sample_grid(geo.levels.h, canyon)
    dry = evaluate_stresses(geo, canyon, [LoadCase(kind="hydrostatic", water_level=geo.levels.h)], grid=grid)
    grav = evaluate_stresses(geo, canyon, [LoadCase(kind="gravity")], grid=grid)
    assert np.array_equal(dry.states, grav.states)


def test_upstream_face_less_compressed_vertically():
    # the bending share is tensile upstream and compressive downstream
    geo = _constant_geometry()
    canyon = _canyon()
    up = evaluate_stresses(geo, canyon, [LoadCase()], grid=_point(100.0, "up"))
    dn = evaluate_stresses(geo, canyon, [LoadCase()], grid=_point(100.0, "down"))
    assert up.states[0, 0, 1] > dn.states[0, 0, 1]
    assert up.states[0, 0, 2] == dn.states[0, 0, 2]  # hoop is face-independent


def test_peak_compression_monotone_in_water_level(table5_design):
    geo = DamGeometry(table5_design)
    canyon = _canyon()
    grid = sample_grid(geo.levels.h, canyon)
    peaks = []
    for wl in (0.0, 30.0, 60.0, 100.0, geo.levels.h):
        field = evaluate_stresses(geo, canyon, [LoadCase(water_level=wl)], grid=grid)
        peaks.append(-float(field.states.min()))
    assert all(a >= b - 1e-12 for a, b in zip(peaks, peaks[1:]))
    assert peaks[0] > peaks[-1]


def test_pseudo_seismic_adds_compression(table5_design):
    geo = DamGeometry(table5_design)
    canyon = _canyon()
    grid = sample_grid(geo.levels.h, canyon)
    hyd = evaluate_stresses(geo, canyon, [LoadCase(kind="hydrostatic")], grid=grid)
    ps = evaluate_stresses(geo, canyon, [LoadCase(kind="pseudo_seismic")], grid=grid)
    # only the hoop component gains the Westergaard share, so the sorted
    # states dominate pointwise and strictly so wherever water acts
    assert np.all(ps.states <= hyd.states + 1e-15)
    assert np.any(ps.states < hyd.states - 1e-9)


def test_states_sorted_descending(dam_problem, table5_design):
    geo = DamGeometry(table5_design)
    canyon = _canyon()
    cases = [LoadCase(kind=k) for k in ("gravity", "hydrostatic", "pseudo_seismic")]
    field = evaluate_stresses(geo, canyon, cases)
    assert field.states.shape == (108, 3, 3)
    assert np.all(np.diff(field.states, axis=-1) <= 0.0)


def test_default_grid_layout():
    geo = _constant_geometry()
    canyon = _canyon()
    x, z, face = sample_grid(geo.levels.h, canyon)
    assert len(x) == len(z) == len(face) == 108
    assert set(face) == {"up", "down"}
    # crown column sampled at every depth, abutments at the canyon wall
    up = face == "up"
    xs = x[up].reshape(6, 9)
    zs = z[up].reshape(6, 9)
    assert np.all(xs[:, 4] == 0.0)
    assert np.allclose(np.abs(xs[:, 0]), canyon.half_width(zs[:, 0]))
    with pytest.raises(ValueError):
        sample_grid(geo.levels.h, canyon, n_depths=5)
    with pytest.raises(ValueError):
        sample_grid(geo.levels.h, canyon, n_arc=8)
    with pytest.raises(ValueError):
        sample_grid(geo.levels.h, canyon, n_arc=7)


def test_mirror_symmetry(table5_design):
    # the surrogate depends on depth and face only, so arches are symmetric
    geo = DamGeometry(table5_design)
    field = evaluate_stresses(geo, _canyon(), [LoadCase()])
    per_face = field.states.reshape(2, 6, 9, 1, 3)
    assert np.array_equal(per_face, per_face[:, :, ::-1])


def test_determinism(table5_design):
    geo = DamGeometry(table5_design)
    a = evaluate_stresses(geo, _canyon(), [LoadCase(kind="pseudo_seismic")])
    b = evaluate_stresses(geo, _canyon(), [LoadCase(kind="pseudo_seismic")])
    assert np.array_equal(a.states, b.states)


def test_degenerate_sections_raise():
    canyon = _canyon()
    bad_tc = DamGeometry(DesignVector(
        gamma=0.0, beta=0.5, tc=[5, 5, 5, -1, 5, 5], ru=[100] * 6, rd=[90] * 6))
    with pytest.raises(DegenerateGeometryError):
        evaluate_stresses(bad_tc, canyon, [LoadCase()])
    bad_ru = DamGeometry(DesignVector(
        gamma=0.0, beta=0.5, tc=[12.5] * 6, ru=[100, 100, 100, -5, 100, 100], rd=[90] * 6))
    with pytest.raises(DegenerateGeometryError):
        evaluate_stresses(bad_ru, canyon, [LoadCase()])


def test_load_case_validation():
    with pytest.raises(ValueError):
        LoadCase(kind="wave")
    with pytest.raises(ValueError):
        LoadCase(water_density=0.0)
    with pytest.raises(ValueError):
        LoadCase(seismic_coefficient=-0.1)


def test_closed_form_order_matches_np_sort():
    # ties between -0.0, 0.0 and equal values must land where np.sort puts
    # them, signs of zeros included
    rows = []
    for hoop in (-2.0, -0.0):
        for vertical in (-3.0, -1.0, -0.0, 0.0, 1.0, hoop):
            rows.append((hoop, vertical))
    hoop, vertical = np.array(rows).T
    got = _sorted_states(hoop, vertical)
    comp = np.stack([hoop, vertical, np.zeros_like(hoop)], axis=-1)
    want = np.sort(comp, axis=-1)[..., ::-1]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # the crest cases spelled out: upstream (hoop, vertical) = (-0, 0) sorts
    # to [0, 0, -0], downstream (-0, -0) to [0, -0, -0]
    assert np.array_equal(np.signbit(got[[9, 8]]), [[False, False, True], [False, True, True]])


def test_distinct_rows_of_the_default_grid(table5_design):
    geo = DamGeometry(table5_design)
    grid = sample_grid(geo.levels.h, _canyon())
    cases = [LoadCase(kind=k) for k in ("gravity", "hydrostatic", "pseudo_seismic")]
    surrogate = StressSurrogate(grid, geo.levels.h, cases, MOMENT_SHARE)
    assert len(surrogate.multiplicity) == 12 and np.all(surrogate.multiplicity == 9)
    assert np.array_equal(surrogate.depths, np.unique(grid[1]))
    assert np.array_equal(surrogate.index, np.repeat(np.arange(12), 9))
    assert surrogate(geo.tc(surrogate.depths), geo.ru(surrogate.depths)).shape == (12, 3, 3)


def test_states_equal_per_point_reference(table5_design):
    # bit for bit, signed zeros included, on the default grid and on a
    # grid whose points interleave faces and depths
    geo = DamGeometry(table5_design)
    canyon = _canyon()
    cases = [LoadCase(kind=k) for k in ("gravity", "hydrostatic", "pseudo_seismic")]
    cases.append(LoadCase(water_level=30.0))
    x, z, face = sample_grid(geo.levels.h, canyon)
    order = np.random.default_rng(1).permutation(len(z))
    for grid in ((x, z, face), (x[order], z[order], face[order])):
        field = evaluate_stresses(geo, canyon, cases, grid=grid)
        _, zg, fg = grid
        ref = surrogate_states(geo.tc(zg), geo.ru(zg), zg, fg, geo.levels.h, cases, 0.02)
        assert np.array_equal(field.states.view(np.int64), ref.view(np.int64))
