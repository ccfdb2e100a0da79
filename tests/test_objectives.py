import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from archdam import CanyonProfile, DamProblem, default_config, make_problem
from archdam.geometry import VolumeQuadrature, level_depths
from archdam.objectives import BOUND_SLACK, LOWER_BOUNDS, PENALTY_FIT1, PENALTY_FIT2, UPPER_BOUNDS
from archdam.willam_warnke import EvaluationError, criterion_values, hydrostatic_validity

from _oracles import evaluate_rowwise, faces_cross, lagrange_basis
from conftest import TABLE5, grid_states

# The rowwise reference interpolates with the barycentric per-design
# interpolant, the package with its basis matrices, so off-level depths
# differ in the last bits. Measured worst differences on 2,000 draws:
# fit1 6.5e-16 relative, violations 2.7e-15 absolute. The stress depths
# are the levels, where both interpolants give the node values, so fit2
# is exact.
FIT1_RTOL, VIOL_ATOL = 1e-14, 1e-13


def _assert_matches_rowwise(problem, X, b=None):
    """The batch equals the rowwise reference in its degenerate kinds,
    validity warnings, feasible flags and fit2, and fit1 and the
    violations within the tolerances above; each row evaluated alone
    gives its batch row's bits."""
    b = problem._evaluate(X) if b is None else b
    F_ref, viol_ref, kinds_ref, warnings_ref = evaluate_rowwise(problem, X)
    assert list(b.degenerate) == kinds_ref
    assert np.array_equal(b.validity_warnings, warnings_ref)
    assert np.array_equal(b.violation == 0.0, viol_ref == 0.0)
    assert np.allclose(b.F[:, 0], F_ref[:, 0], rtol=FIT1_RTOL, atol=0.0)
    assert np.allclose(b.violation, viol_ref, rtol=0.0, atol=VIOL_ATOL)
    assert np.array_equal(b.F[:, 1], F_ref[:, 1])
    for i in range(len(X)):
        one = problem._evaluate(X[i:i + 1])
        assert np.array_equal(one.F[0], b.F[i]) and one.violation[0] == b.violation[i]
        assert np.array_equal(one.constraints[0], b.constraints[i])


def test_reference_design_regression(dam_problem, table5_design):
    e = dam_problem.evaluate(table5_design)
    assert e.feasible and e.violation == 0.0
    assert e.fit1 == pytest.approx(317086.689073, rel=1e-9)
    assert e.fit2 == pytest.approx(-0.036224431, abs=1e-8)
    assert e.fit2 < 0.0
    assert e.diagnostics["validity_warnings"] == 0
    assert len(e.diagnostics["constraints"]) == 9


def test_evaluate_accepts_array_and_vector(dam_problem):
    ea = dam_problem.evaluate(TABLE5)
    el = dam_problem.evaluate(TABLE5.tolist())
    assert ea.fit1 == el.fit1 and ea.fit2 == el.fit2
    with pytest.raises(ValueError, match="exactly 20 entries"):
        dam_problem.evaluate(TABLE5[:19])


def test_repeat_evaluations_bitwise_identical(dam_problem):
    rng = np.random.default_rng(3)
    x = LOWER_BOUNDS + rng.random(20) * (UPPER_BOUNDS - LOWER_BOUNDS)
    a = dam_problem.evaluate(x)
    b = dam_problem.evaluate(x)
    assert (a.fit1, a.fit2, a.violation) == (b.fit1, b.fit2, b.violation)


def test_downstream_radius_excess_is_infeasible(dam_problem):
    x = TABLE5.copy()
    x[14:20] = x[8:14]  # rd = ru: boundary, ordering constraints are zero
    e_eq = dam_problem.evaluate(x)
    assert e_eq.violation == pytest.approx(0.0, abs=1e-12)
    x[14] = x[8] * 1.05  # 5 percent over at the crest level
    e = dam_problem.evaluate(x)
    assert not e.feasible
    assert e.violation >= 0.05 - 1e-9


def _permissive_problem():
    # tc nodes down to 0.5 m, far below the canonical floors: a thin
    # enough level gives a non-positive compressive meridian
    lo = LOWER_BOUNDS.copy()
    hi = UPPER_BOUNDS.copy()
    lo[2:8] = 0.5
    hi[2:8] = 200.0
    return DamProblem(lower=lo, upper=hi)


def _permissive_radius_bounds():
    # admit ru and rd nodes such as 135, 39, 135, ... m, which dip
    # negative between levels
    lo = LOWER_BOUNDS.copy()
    hi = UPPER_BOUNDS.copy()
    lo[8:] = -50.0
    hi[8:] = 200.0
    return lo, hi


def _borderline_radius_bounds():
    # radius bounds a few nm above zero: the least radius the bounds allow
    # is about -0.5 nm with the 1e-9 slack a design may lie outside them,
    # and positive if either bound went without it (the largest sum of
    # negative level weights at a check depth is about 1.05)
    lo = LOWER_BOUNDS.copy()
    hi = UPPER_BOUNDS.copy()
    lo[8:], hi[8:] = 2.7e-9, 2.8e-9
    return lo, hi


def test_bounds_admitting_non_positive_radius_raise():
    for lo, hi in (_permissive_radius_bounds(), _borderline_radius_bounds()):
        with pytest.raises(ValueError, match="ru and rd bounds admit a non-positive radius"):
            DamProblem(lower=lo, upper=hi)


def test_bounds_admitting_non_positive_thickness_raise():
    # the stresses divide by tc at the levels; a lower bound at the 1e-9
    # slack a design may lie outside it admits tc = 0 there
    for k, floor in ((2, 0.0), (7, -50.0), (4, BOUND_SLACK)):
        lo = LOWER_BOUNDS.copy()
        lo[k] = floor
        with pytest.raises(ValueError, match="tc bounds admit a non-positive thickness"):
            DamProblem(lower=lo)
    lo = LOWER_BOUNDS.copy()
    lo[2:8] = 2.0 * BOUND_SLACK
    assert DamProblem(lower=lo).evaluate(TABLE5).feasible


def test_out_of_bounds_raises(dam_problem):
    x = TABLE5.copy()
    x[0] = 0.31
    with pytest.raises(ValueError):
        dam_problem.evaluate(x)
    x = TABLE5.copy()
    x[2] = 2.9
    with pytest.raises(ValueError):
        dam_problem.evaluate(x)


def test_objective_floors_on_random_designs(dam_problem):
    # fit2 is a normalized margin: bounded below by roughly -1 even for
    # wildly over-designed shapes; fit1 is a volume or the penalty cap
    rng = np.random.default_rng(11)
    X = LOWER_BOUNDS + rng.random((1000, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    F, viol = dam_problem.evaluate_batch(X)
    assert np.all(F[:, 1] >= -1.05)
    assert np.all(F[:, 0] > 0.0)
    assert np.all(viol >= 0.0)
    assert np.isfinite(F).all()


def test_batch_matches_scalar_loop(dam_problem):
    rng = np.random.default_rng(7)
    X = LOWER_BOUNDS + rng.random((25, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    F, viol = dam_problem.evaluate_batch(X)
    for i, row in enumerate(X):
        e = dam_problem.evaluate(row)
        assert F[i, 0] == e.fit1 and F[i, 1] == e.fit2 and viol[i] == e.violation
    # a batch of one whose faces cross takes the volume's split branch alone
    crossing = [i for i, x in enumerate(X)
                if faces_cross(dam_problem.canyon, dam_problem.quadrature_order, x)]
    assert 0 < len(crossing) < len(X)
    for i in crossing:
        F1, viol1 = dam_problem.evaluate_batch(X[i:i + 1])
        assert np.array_equal(F1[0], F[i]) and viol1[0] == viol[i]


def test_batch_memory_at_largest_quadrature_order():
    # the largest volume array is (n, order): 200 designs at the schema's
    # largest order need a few MB, where an (n, order, order) integrand
    # took 105 MB
    p = DamProblem(quadrature_order=256)
    X = LOWER_BOUNDS + np.random.default_rng(8).random((200, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    tracemalloc.start()
    try:
        p.evaluate_batch(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_volume_memory_at_largest_quadrature_order():
    # a, mean and edge are made in the ru and rd sections, so the volume of
    # 2,000 designs at the schema's largest order peaks below 1.5 times its
    # (3, n, order) sections
    n, order = 2000, 256
    volume = VolumeQuadrature(CanyonProfile.default(), order)
    X = LOWER_BOUNDS + np.random.default_rng(8).random((n, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    nodes = np.ascontiguousarray(X[:, 2:].reshape(n, 3, 6).transpose(1, 0, 2))
    tracemalloc.start()
    try:
        volume(nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 3 * n * order * 8


def test_non_finite_design_raises(dam_problem):
    for bad in (np.nan, np.inf, -np.inf):
        x = TABLE5.copy()
        x[3] = bad
        with pytest.raises(ValueError, match="row 0: tc2"):
            dam_problem.evaluate(x)
        X = np.vstack([TABLE5, TABLE5, x])
        with pytest.raises(ValueError, match="row 2: tc2"):
            dam_problem.evaluate_batch(X)


# order 31 is an odd rule, with a volume depth at half the height, so the
# volume sums a second depth set with its own weights
@pytest.mark.parametrize("setting", [{}, {"quadrature_order": 31}],
                         ids=["default", "quadrature_order=31"])
def test_batch_equals_rowwise_reference(setting):
    problem = DamProblem(**setting)
    rng = np.random.default_rng(2024)
    X = LOWER_BOUNDS + rng.random((200, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    _assert_matches_rowwise(problem, X)


def test_batch_equals_rowwise_reference_with_degenerate_rows():
    p = _permissive_problem()
    thin_base = TABLE5.copy()
    thin_base[7] = 1.0
    thin_middle = TABLE5.copy()
    thin_middle[5] = 0.5
    rng = np.random.default_rng(5)
    normal = LOWER_BOUNDS + rng.random((4, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    X = np.vstack([normal[:2], thin_base, TABLE5, thin_middle, normal[2:]])
    b = p._evaluate(X)
    F, viol = b.F, b.violation
    _assert_matches_rowwise(p, X, b)
    assert list(b.degenerate) == [None, None, "meridian", None, "meridian", None, None]
    assert np.isfinite(b.constraints).all()
    assert np.array_equal(F[[2, 4]], [[PENALTY_FIT1, PENALTY_FIT2]] * 2)
    assert viol[2] >= 1.0 and viol[4] >= 1.0
    assert np.all(F[[0, 1, 3, 5, 6], 0] < PENALTY_FIT1)


def test_batch_of_one_and_empty_batch(dam_problem):
    _assert_matches_rowwise(dam_problem, TABLE5[None, :])
    F, viol = dam_problem.evaluate_batch(np.empty((0, 20)))
    assert F.shape == (0, 2) and viol.shape == (0,)


def test_bounds_property():
    p = DamProblem()
    lo, hi = p.bounds
    assert np.array_equal(lo, LOWER_BOUNDS) and np.array_equal(hi, UPPER_BOUNDS)
    assert len(p.lower) == 20
    assert np.all(lo < hi)


def test_problem_compares_by_identity_and_hashes():
    # the problem holds arrays: equality by value would be ambiguous
    p, q = DamProblem(), DamProblem()
    assert p == p and p != q
    assert {p: 1, q: 2}[p] == 1


def _thin_problem():
    # tc6 may go down to 0.5, below the canonical floor of 12
    lo = LOWER_BOUNDS.copy()
    lo[7] = 0.5
    return DamProblem(lower=lo)


def _table5_with_tc6(value):
    x = TABLE5.copy()
    x[7] = value
    return x


def test_thin_design_penalized_alone_as_meridian():
    p = _thin_problem()
    X = np.vstack([_table5_with_tc6(1.0), _table5_with_tc6(2.0), TABLE5])
    b = p._evaluate(X)
    assert list(b.degenerate) == ["meridian", None, None]
    assert np.array_equal(b.F[0], [PENALTY_FIT1, PENALTY_FIT2])
    assert b.violation[0] == np.maximum(b.constraints[0], 0.0).sum() + 1.0
    for i in (1, 2):
        e = p.evaluate(X[i])
        assert (b.F[i, 0], b.F[i, 1], b.violation[i]) == (e.fit1, e.fit2, e.violation)
    assert p.evaluate(X[0]).diagnostics == {"degenerate": "meridian"}
    _assert_matches_rowwise(p, X, b)
    # criterion_values keeps raising for direct callers
    states = grid_states(p, X[0])
    with pytest.raises(EvaluationError):
        criterion_values(states, p.strength, p.coeffs)
    assert np.isnan(criterion_values(states, p.strength, p.coeffs, strict=False)[0]).any()


def test_validity_warnings_count_each_state_once():
    p = _thin_problem()
    x = _table5_with_tc6(2.0)
    e = p.evaluate(x)
    assert e.fit2 == pytest.approx(22.37, abs=0.01)
    # two (face, depth, load case) states outside the range, counted once each
    assert e.diagnostics["validity_warnings"] == 2
    invalid = ~hydrostatic_validity(grid_states(p, x), p.strength)
    assert e.diagnostics["validity_warnings"] == invalid.sum()


@st.composite
def _in_bound_batches(draw):
    """1 to 40 designs inside the canonical bounds, the bounds themselves
    included."""
    n = draw(st.integers(1, 40))
    u = draw(arrays(float, (n, 20), elements=st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))
    return LOWER_BOUNDS + u * (UPPER_BOUNDS - LOWER_BOUNDS)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_in_bound_batches())
def test_batch_equals_rowwise_reference_property(dam_problem, X):
    _assert_matches_rowwise(dam_problem, X)


def _narrowed_problem():
    cfg = default_config()
    span = UPPER_BOUNDS - LOWER_BOUNDS
    cfg["problem"]["lower_bounds"] = (LOWER_BOUNDS + 0.25 * span).tolist()
    cfg["problem"]["upper_bounds"] = (UPPER_BOUNDS - 0.25 * span).tolist()
    return make_problem(cfg)


def _worst_case_designs(p):
    """One design per radius-check depth, with every ru and rd node at its
    bound widened by 1e-9: the lower one where the level's weight at that
    depth is non-negative, the upper one where it is negative. Both
    radii then take the least value the bounds allow at that depth."""
    z = np.linspace(0.0, p.canyon.h, 101)
    weights = np.column_stack([lagrange_basis(z, i, level_depths(p.canyon.h))
                               for i in range(1, 7)])
    X = np.tile((p.lower + p.upper) / 2.0, (len(z), 1))
    for k in (8, 14):
        X[:, k:k + 6] = np.where(weights < 0.0, p.upper[k:k + 6] + 1e-9,
                                 p.lower[k:k + 6] - 1e-9)
    return X


@pytest.mark.parametrize("make", [DamProblem, _narrowed_problem])
def test_radius_check_sound_at_worst_case_designs(make):
    # evaluate_rowwise sweeps ru and rd over 101 depths itself, so it
    # would penalize a worst case that the bounds let reach zero
    p = make()
    X = _worst_case_designs(p)
    b = p._evaluate(X)
    _assert_matches_rowwise(p, X, b)
    assert list(b.degenerate) == [None] * len(X)


def test_radius_certificate_from_bounds():
    # every config keeps its bounds inside the canonical box, over which
    # the least radius is 21.29 m whatever the height
    DamProblem()
    _narrowed_problem()
    for h in (15.0, 500.0):
        cfg = default_config()
        cfg["geometry"]["h"] = h
        assert make_problem(cfg).canyon.h == h


def test_canyon_height_sets_the_levels():
    # the canyon's height is the one dam height: a problem built on a
    # canyon alone places its levels as the config with that geometry does
    geometry = {"h": 100.0, "w_crest": 90.0, "w_base": 30.0}
    cfg = default_config()
    cfg["geometry"] = geometry
    rng = np.random.default_rng(24)
    X = LOWER_BOUNDS + rng.random((100, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    got = DamProblem(canyon=CanyonProfile(**geometry))._evaluate(X)
    want = make_problem(cfg)._evaluate(X)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()
