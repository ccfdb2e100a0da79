import re

import numpy as np
import pytest

from archdam import CanyonProfile, DamProblem, LoadCase
from archdam.geometry import (DEFAULT_HEIGHT, LOWER_BOUNDS, UPPER_BOUNDS, DepthInterpolant,
                              level_depths)
from archdam.stress_model import GRAVITY, MOMENT_SHARE, StressSurrogate, _sorted_states

from _oracles import sample_points, surrogate_states
from conftest import TABLE5, grid_states


# tc = 12.5 m, ru = 100 m and rd = 90 m at every depth
CONSTANT_DESIGN = np.array([0.0, 0.5] + [12.5] * 6 + [100.0] * 6 + [90.0] * 6)


def _canyon(h=DEFAULT_HEIGHT):
    return CanyonProfile.default(h)


def _point_states(cases, z, face="up"):
    """Sorted states (n_cases, 3) of CONSTANT_DESIGN at depth z, 0 or 100 m:
    a row of the default grid of a dam 100 m high."""
    surrogate = StressSurrogate(_canyon(100.0), cases, MOMENT_SHARE)
    row = list(surrogate.z[:6]).index(z) + (6 if face == "down" else 0)
    return surrogate(np.full(6, 12.5), np.full(6, 100.0))[row]


def _grid_states(x, cases):
    """Sorted states (12, n_cases, 3) on the rows of the default grid."""
    return grid_states(DamProblem(load_cases=tuple(cases)), x)


def test_thin_ring_hoop_hand_value():
    # p = rho_w g z = 0.981 MPa at 100 m depth; hoop = -p ru / tc
    s = _point_states([LoadCase(kind="hydrostatic")], 100.0)[0]
    assert s[2] == pytest.approx(-7.848, rel=1e-12)
    bend = 0.02 * 1000.0 * GRAVITY * 100.0**3 / 12.5**2 / 1e6
    weight = -2400.0 * GRAVITY * 100.0 / 1e6
    assert s[1] == pytest.approx(weight + bend, rel=1e-12)
    assert s[0] == 0.0


def test_crest_is_unstressed():
    s = _point_states([LoadCase(kind="hydrostatic")], 0.0)[0]
    assert np.array_equal(s, np.zeros(3))


def test_gravity_case_is_uniaxial():
    s = _point_states([LoadCase(kind="gravity")], 100.0)[0]
    assert s[0] == 0.0 and s[1] == 0.0
    assert s[2] == pytest.approx(-2400.0 * GRAVITY * 100.0 / 1e6, rel=1e-12)


def test_empty_reservoir_matches_gravity():
    dry = _grid_states(CONSTANT_DESIGN,
                       [LoadCase(kind="hydrostatic", water_level=DEFAULT_HEIGHT)])
    grav = _grid_states(CONSTANT_DESIGN, [LoadCase(kind="gravity")])
    assert np.array_equal(dry, grav)


def test_upstream_face_less_compressed_vertically():
    # the bending share is tensile upstream and compressive downstream
    up = _point_states([LoadCase()], 100.0, "up")
    dn = _point_states([LoadCase()], 100.0, "down")
    assert up[0, 1] > dn[0, 1]
    assert up[0, 2] == dn[0, 2]  # hoop is face-independent


def test_peak_compression_monotone_in_water_level():
    peaks = []
    for wl in (0.0, 30.0, 60.0, 100.0, DEFAULT_HEIGHT):
        peaks.append(-float(_grid_states(TABLE5, [LoadCase(water_level=wl)]).min()))
    assert all(a >= b - 1e-12 for a, b in zip(peaks, peaks[1:]))
    assert peaks[0] > peaks[-1]


def test_pseudo_seismic_adds_compression():
    hyd = _grid_states(TABLE5, [LoadCase(kind="hydrostatic")])
    ps = _grid_states(TABLE5, [LoadCase(kind="pseudo_seismic")])
    # only the hoop component gains the Westergaard share, so the sorted
    # states dominate pointwise and strictly so wherever water acts
    assert np.all(ps <= hyd + 1e-15)
    assert np.any(ps < hyd - 1e-9)


def test_states_sorted_descending():
    cases = [LoadCase(kind=k) for k in ("gravity", "hydrostatic", "pseudo_seismic")]
    states = _grid_states(TABLE5, cases)
    assert states.shape == (12, 3, 3)
    assert np.all(np.diff(states, axis=-1) <= 0.0)


def _surrogate(canyon):
    cases = [LoadCase(kind=k) for k in ("gravity", "hydrostatic", "pseudo_seismic")]
    return StressSurrogate(canyon, cases, MOMENT_SHARE)


def test_default_grid_layout():
    canyon = _canyon()
    surrogate = _surrogate(canyon)
    z, face = surrogate.z, surrogate.face
    assert len(z) == len(face) == 12
    for got, want in zip((z, face), sample_points(canyon)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert set(face) == {"up", "down"}


def test_determinism():
    a = _grid_states(TABLE5, [LoadCase(kind="pseudo_seismic")])
    b = _grid_states(TABLE5, [LoadCase(kind="pseudo_seismic")])
    assert np.array_equal(a, b)


def test_load_case_validation():
    with pytest.raises(ValueError):
        LoadCase(kind="wave")
    with pytest.raises(ValueError):
        LoadCase(water_density=0.0)
    with pytest.raises(ValueError):
        LoadCase(seismic_coefficient=-0.1)
    # the checks hold for positional arguments as well
    for args, message in [
        (("wave",), "kind: 'wave' is not one of ['gravity', 'hydrostatic', 'pseudo_seismic']"),
        (("pseudo_seismic", 0.0, -0.1), "seismic_coefficient: -0.1 is less than the minimum of 0"),
        (("hydrostatic", 0.0, 0.1, 1000.0, 0.0),
         "concrete_density: 0.0 is less than or equal to the minimum of 0"),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(
                f"config schema violation at $.loads[*].{message}") + "$"):
            LoadCase(*args)


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


def test_distinct_rows_of_the_default_grid():
    # 12 (face, depth) rows at the six control levels, upstream first
    surrogate = _surrogate(_canyon())
    assert np.array_equal(surrogate.z, np.tile(level_depths(DEFAULT_HEIGHT), 2))
    assert np.array_equal(surrogate.face, np.repeat(["up", "down"], 6))
    assert surrogate(*TABLE5[2:14].reshape(2, 6)).shape == (12, 3, 3)


def test_states_equal_per_point_reference():
    # bit for bit, signed zeros included; the reference takes tc and ru at
    # every row from the package's interpolant at that row's depth
    h = DEFAULT_HEIGHT
    cases = [LoadCase(kind=k) for k in ("gravity", "hydrostatic", "pseudo_seismic")]
    cases.append(LoadCase(water_level=30.0))
    nodes = TABLE5[2:14].reshape(2, 6)
    rows = StressSurrogate(_canyon(), cases, MOMENT_SHARE)(*nodes)
    z, face = sample_points(_canyon())
    tc, ru = DepthInterpolant(h, z).values(nodes)
    ref = surrogate_states(tc, ru, z, face, h, cases, MOMENT_SHARE)
    assert np.array_equal(rows.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("h", [15.0, DEFAULT_HEIGHT, 500.0])
def test_states_take_the_node_values(h):
    # the stress depths are the levels, where the interpolant's basis is the
    # identity: the surrogate's states on the node values are the same bits
    # as on the sections interpolated to the levels
    problem = DamProblem(canyon=_canyon(h))
    X = LOWER_BOUNDS + np.random.default_rng(30).random((2000, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    nodes = np.vstack([X, TABLE5])[:, 2:14].reshape(-1, 2, 6).transpose(1, 0, 2)
    states = problem.stress_surrogate(*nodes)
    assert states.shape == (2001, 12, 2, 3)
    sections = DepthInterpolant(h, problem.stress_surrogate.z[:6]).values(nodes)
    assert np.array_equal(states.view(np.int64),
                          problem.stress_surrogate(*sections).view(np.int64))
