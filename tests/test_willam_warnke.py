import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from archdam import StrengthParams, criterion_values, solve_coefficients
from archdam.willam_warnke import (
    DOMAIN_NAMES,
    DegenerateStrengthError,
    EvaluationError,
    domain_codes,
    hydrostatic_validity,
)

from _oracles import (calibration_states, classify_domain, criterion_four_pass, criterion_value,
                      meridian_r1, meridian_r2, sort_principal)


def test_default_coefficients_frozen(default_strength, default_coeffs):
    # regression freeze of the fitted meridian polynomials
    assert default_coeffs.a == pytest.approx(
        [0.029116, -0.6486519, -0.1716554], abs=5e-7)
    assert default_coeffs.b == pytest.approx(
        [0.0481284, -1.0690938, -0.3541019], abs=5e-7)
    assert default_coeffs.xi0 == pytest.approx(0.044366, abs=5e-7)
    # the meridians' sign conditions, and the convexity window on their
    # ratio over [-1, xi_t]
    a, b = default_coeffs.a, default_coeffs.b
    assert a[0] > 0 and a[1] <= 0 and a[2] <= 0
    assert b[0] > 0 and b[1] <= 0 and b[2] <= 0
    xi_t = default_strength.f_t / (3.0 * default_strength.f_c)
    xs = np.linspace(-1.0, xi_t, 100)
    ratio = meridian_r1(default_coeffs, xs) / meridian_r2(default_coeffs, xs)
    assert np.all((ratio > 0.5) & (ratio < 1.25))


def test_calibration_round_trip_defaults(default_strength, default_coeffs):
    states = calibration_states(default_strength)
    margins = criterion_values(states, default_strength, default_coeffs)[0]
    assert np.max(np.abs(margins)) < 1e-9


def test_calibration_round_trip_random_strengths():
    rng = np.random.default_rng(17)
    for _ in range(50):
        fc = rng.uniform(20.0, 60.0)
        ft = fc * rng.uniform(0.03, 0.12)
        strength = StrengthParams(f_c=fc, f_t=ft)
        coeffs = solve_coefficients(strength)
        margins = criterion_values(calibration_states(strength), strength, coeffs)[0]
        assert np.max(np.abs(margins)) < 1e-9


def test_zero_stress_margin(default_strength, default_coeffs):
    # unstressed concrete sits f_t/f_c inside the tension cutoff
    assert criterion_value((0.0, 0.0, 0.0), default_strength, default_coeffs) == pytest.approx(-0.05)


def test_domain_classification():
    assert classify_domain((1.0, -1.0, -2.0)) == "TCC"
    assert classify_domain((2.0, 1.0, 0.5)) == "TTT"
    assert classify_domain((2.0, 1.0, -0.5)) == "TTC"
    assert classify_domain((-1.0, -2.0, -3.0)) == "CCC"
    # ties go to the more tensile domain
    assert classify_domain((1.0, 0.0, 0.0)) == "TTT"
    assert classify_domain((1.0, 0.0, -1.0)) == "TCC"
    assert classify_domain((0.0, -1.0, -2.0)) == "CCC"
    assert DOMAIN_NAMES == ("CCC", "TCC", "TTC", "TTT")


def _edge_and_drawn_states(strength, rng):
    """Sorted states: hand-picked edges of every domain (signed zeros,
    ties at s1, s2 or s3 = 0, s1 at and above f_t, the hydrostatic axis)
    and random draws, a tenth of them scaled far beyond the calibrated
    range, where compressive meridians come out non-positive."""
    ft = strength.f_t
    edges = [
        [-1.0, -2.0, -3.0], [0.0, -1.0, -2.0], [-0.0, -1.0, -2.0], [0.0, 0.0, -2.0],
        [1.0, 0.0, -2.0], [1.0, -0.0, -2.0], [1.0, 0.5, 0.0], [1.0, 0.5, -0.0],
        [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, -0.0], [ft, -1.0, -2.0],
        [1.5 * ft, -1.0, -2.0], [ft, 0.5, -2.0], [2.0 * ft, 1.0, -3.0], [ft, ft, ft],
        [ft, 0.0, -0.0], [-10.0, -10.0, -10.0], [-2.0, -2.0, -5.0], [-1.0, -4.0, -4.0],
    ]
    drawn = rng.normal(0.0, 20.0, (6000, 3))
    drawn[::3, rng.integers(0, 3)] = 0.0
    drawn[1::7, rng.integers(0, 3)] = -0.0
    drawn[2::5, 0] = rng.choice([ft, 1.5 * ft], len(drawn[2::5]))
    drawn[::10] *= 30.0
    states = np.vstack([edges, np.sort(drawn, axis=1)[:, ::-1]])
    states[6::9, 2] = states[6::9, 1]
    return states


def test_criterion_matches_four_pass_oracle(default_strength, default_coeffs):
    # bit for bit, NaN positions included, against one masked pass per domain
    states = _edge_and_drawn_states(default_strength, np.random.default_rng(41))
    for shaped in (states, states.reshape(-1, 2, 3)):
        ref = criterion_four_pass(shaped, default_strength, default_coeffs, strict=False)
        got = criterion_values(shaped, default_strength, default_coeffs, strict=False)
        assert len(got) == 3
        for a, b in zip(got, ref[:3]):
            assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
        dom = domain_codes(shaped)
        assert dom.dtype == ref[3].dtype and np.array_equal(dom, ref[3])
    dom, margin = ref[3].ravel(), ref[0].ravel()
    assert set(np.unique(dom)) == {0, 1, 2, 3}
    assert np.isnan(margin).any() and not np.isnan(margin[dom != 0]).any()
    assert (ref[2].ravel()[dom == 1] < 0.0).any()  # TCC states beyond f_t
    with pytest.raises(EvaluationError):
        criterion_four_pass(states, default_strength, default_coeffs)
    with pytest.raises(EvaluationError):
        criterion_values(states, default_strength, default_coeffs)
    finite = states[~np.isnan(margin)]
    strict = criterion_values(finite, default_strength, default_coeffs) + (domain_codes(finite),)
    for a, b in zip(strict, criterion_four_pass(finite, default_strength, default_coeffs)):
        assert np.array_equal(a, b)


def test_sort_principal():
    assert np.array_equal(sort_principal((1.0, 3.0, 2.0)), [3.0, 2.0, 1.0])


def test_isotropy(default_strength, default_coeffs):
    rng = np.random.default_rng(23)
    base = rng.uniform(-40.0, 4.0, (200, 3))
    ref = criterion_values(sort_principal(base), default_strength, default_coeffs)[0]
    for perm in ([0, 2, 1], [2, 1, 0], [1, 2, 0]):
        got = criterion_values(sort_principal(base[:, perm]), default_strength, default_coeffs)[0]
        assert np.array_equal(got, ref)


def _random_straddles(rng, n, boundary):
    """Sorted state pairs differing by 1e-8 across one sigma_i = 0 plane."""
    eps = 5e-9
    lo = np.empty((n, 3))
    hi = np.empty((n, 3))
    if boundary == 1:  # sigma1 = 0: both compressive below
        lo[:, 0], hi[:, 0] = -eps, eps
        lo[:, 1] = hi[:, 1] = rng.uniform(-30.0, -0.5, n)
        lo[:, 2] = hi[:, 2] = lo[:, 1] - rng.uniform(0.5, 20.0, n)
    elif boundary == 2:  # sigma2 = 0: TCC vs TTC
        lo[:, 1], hi[:, 1] = -eps, eps
        lo[:, 0] = hi[:, 0] = rng.uniform(0.2, 1.4, n)
        lo[:, 2] = hi[:, 2] = rng.uniform(-30.0, -0.5, n)
    else:  # sigma3 = 0: TTC vs TTT
        lo[:, 2], hi[:, 2] = -eps, eps
        lo[:, 0] = hi[:, 0] = rng.uniform(0.3, 1.4, n)
        lo[:, 1] = hi[:, 1] = lo[:, 0] - rng.uniform(0.0, 0.2, n)
    return lo, hi


def test_continuity_at_sigma1_and_sigma3_boundaries(default_strength, default_coeffs):
    rng = np.random.default_rng(29)
    for boundary in (1, 3):
        lo, hi = _random_straddles(rng, 500, boundary)
        m_lo = criterion_values(lo, default_strength, default_coeffs)[0]
        m_hi = criterion_values(hi, default_strength, default_coeffs)[0]
        assert np.max(np.abs(m_hi - m_lo)) < 1e-6


def test_sigma2_boundary_jump_is_model_intrinsic(default_strength, default_coeffs):
    """The TCC and TTC criterion families disagree at sigma2 = 0.

    Both one-sided values match the closed forms exactly, so the jump is
    a property of the piecewise failure model itself, not of this
    implementation. Kept as a regression guard on both one-sided limits.
    """
    fc, ft = default_strength.f_c, default_strength.f_t
    s1, s3 = 1.0, -10.0
    eps = 5e-9
    tcc_state = np.array([[s1, -eps, s3]])
    ttc_state = np.array([[s1, eps, s3]])
    m_tcc = float(criterion_values(tcc_state, default_strength, default_coeffs)[0][0])
    m_ttc = float(criterion_values(ttc_state, default_strength, default_coeffs)[0][0])

    # TTC closed form: max tension vs the compression-scaled cutoff
    expect_ttc = s1 / fc - (ft / fc) * (1.0 + s3 / fc)
    assert m_ttc == pytest.approx(expect_ttc, abs=1e-9)

    # TCC closed form at sigma2 = 0
    _, f_over, _ = criterion_values(tcc_state, default_strength, default_coeffs)
    assert DOMAIN_NAMES[int(domain_codes(tcc_state)[0])] == "TCC"
    expect_f = np.sqrt(2.0 * s3 * s3 / 15.0) / fc
    assert float(f_over[0]) == pytest.approx(expect_f, rel=1e-9)

    # the families genuinely disagree across the plane
    assert abs(m_tcc - m_ttc) > 1e-3


def test_scale_invariance(default_strength, default_coeffs):
    rng = np.random.default_rng(31)
    states = np.sort(rng.uniform(-40.0, 4.0, (300, 3)), axis=1)[:, ::-1]
    base = criterion_values(states, default_strength, default_coeffs)[0]
    for lam in (0.1, 0.37, 2.0, 9.5):
        scaled = StrengthParams(
            f_c=default_strength.f_c * lam,
            f_t=default_strength.f_t * lam,
            f_cb=default_strength.f_cb * lam,
            f_1=default_strength.f_1 * lam,
            f_2=default_strength.f_2 * lam,
            sigma_h_a=default_strength.sigma_h_a * lam,
        )
        coeffs = solve_coefficients(scaled)
        got = criterion_values(states * lam, scaled, coeffs)[0]
        assert np.max(np.abs(got - base)) < 1e-9


@st.composite
def _states(draw):
    """1 to 40 sorted principal states; each row draws how many of its
    components are tensile, so every domain and the zero ties come up."""
    n = draw(st.integers(1, 40))
    k = draw(arrays(np.int8, n, elements=st.integers(0, 3)))
    tension = draw(arrays(float, (n, 3), elements=st.one_of(st.just(0.0), st.floats(1e-3, 4.0))))
    compression = draw(arrays(float, (n, 3), elements=st.floats(1e-3, 150.0)))
    states = np.where(np.arange(3) < k[:, None], tension, -compression)
    return np.sort(states, axis=1)[:, ::-1]


def _scaled(strength, lam):
    return StrengthParams(**{
        name: getattr(strength, name) * lam
        for name in ("f_c", "f_t", "f_cb", "f_1", "f_2", "sigma_h_a")})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_states(), st.floats(20.0, 60.0), st.floats(0.03, 0.12),
       st.integers(-10, 10), st.floats(0.01, 100.0))
def test_scaling_property(states, f_c, ratio, m, lam):
    # stress and the six strength constants scaled together leave the
    # margins unchanged, bit for bit under a power of two: every operation
    # of the criterion carries that factor exactly
    strength = StrengthParams(f_c=f_c, f_t=ratio * f_c)
    base, f_over, s_term = criterion_values(
        states, strength, solve_coefficients(strength), strict=False)
    valid = hydrostatic_validity(states, strength)

    two = _scaled(strength, 2.0**m)
    got = criterion_values(states * 2.0**m, two, solve_coefficients(two), strict=False)[0]
    assert np.array_equal(got, base, equal_nan=True)
    assert np.array_equal(hydrostatic_validity(states * 2.0**m, two), valid)

    # under other factors they agree to rounding inside the calibrated range.
    # A margin is the difference of two dimensionless terms, F/f_c and
    # S/s_f, so the bound is relative to the terms: the margin itself
    # cancels near zero. Outside the range the meridian blend can amplify
    # the coefficients' rounding a thousandfold.
    other = _scaled(strength, lam)
    got = criterion_values(states * lam, other, solve_coefficients(other), strict=False)[0]
    assert np.array_equal(np.isnan(got), np.isnan(base))
    ok = valid & ~np.isnan(base)
    scale = np.abs(f_over) + np.abs(s_term / strength.s_f)
    assert np.all(np.abs(got - base)[ok] <= 1e-13 * scale[ok])


def test_convexity_window(default_strength, default_coeffs):
    xi = np.linspace(-1.0, default_strength.f_t / (3.0 * default_strength.f_c), 100)
    ratio = meridian_r1(default_coeffs, xi) / meridian_r2(default_coeffs, xi)
    assert np.all(ratio > 0.5) and np.all(ratio < 1.25)


def test_hydrostatic_validity(default_strength):
    fc = default_strength.f_c
    assert hydrostatic_validity((0.0, 0.0, 0.0), default_strength)
    b = np.sqrt(3.0) * fc
    assert hydrostatic_validity((-b, -b, -b), default_strength)  # inclusive
    assert not hydrostatic_validity((-60.0, -60.0, -60.0), default_strength)


def test_hydrostatic_axis_margin(default_strength, default_coeffs):
    # 0/0 in the deviatoric angle resolves to the tensile meridian; the
    # deviatoric magnitude is zero so only the meridian value matters
    m = criterion_value((-10.0, -10.0, -10.0), default_strength, default_coeffs)
    xi = -10.0 / default_strength.f_c
    assert m == pytest.approx(-float(meridian_r1(default_coeffs, xi)), rel=1e-12)


def test_degenerate_strength_raises():
    # sigma_h_a = 0 with f_1 = f_cb puts two calibration states at the
    # same hydrostatic coordinate: the fit system is singular
    with pytest.raises(DegenerateStrengthError):
        solve_coefficients(
            StrengthParams(f_c=30.0, f_t=1.5, f_cb=36.0, f_1=36.0, sigma_h_a=0.0))


def test_strength_defaults_fill_ratios(default_strength):
    s = default_strength
    assert s.f_cb == pytest.approx(1.2 * s.f_c)
    assert s.f_1 == pytest.approx(1.45 * s.f_c)
    assert s.f_2 == pytest.approx(1.725 * s.f_c)
    assert s.sigma_h_a == pytest.approx(np.sqrt(3.0) * s.f_c)


def test_strength_validation():
    for kwargs in ({"f_c": 0.0}, {"f_t": -1.5}):
        with pytest.raises(ValueError, match="^strengths must be positive$"):
            StrengthParams(**kwargs)
    with pytest.raises(ValueError, match="^tensile strength must be below compressive$"):
        StrengthParams(f_c=30.0, f_t=30.0)
    # the checks hold for positional arguments as well
    with pytest.raises(ValueError, match="^strengths must be positive$"):
        StrengthParams(-30.0, 1.5)
    with pytest.raises(ValueError, match="^tensile strength must be below compressive$"):
        StrengthParams(30.0, 31.0)
    # a supplied triaxial constant is kept, the others take their ratio
    s = StrengthParams(40.0, 2.0, 50.0)
    assert (s.f_cb, s.f_1, s.f_2) == (50.0, 1.45 * 40.0, 1.725 * 40.0)
