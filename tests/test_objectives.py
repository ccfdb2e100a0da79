import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from archdam import DamProblem, default_config, make_problem
from archdam.objectives import LOWER_BOUNDS, PENALTY_FIT1, PENALTY_FIT2, UPPER_BOUNDS
from archdam.willam_warnke import EvaluationError, criterion_values, hydrostatic_validity

from _oracles import evaluate_rowwise, lagrange_basis
from conftest import TABLE5, grid_states


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
    # in-bounds node values keep every interpolant positive, so the
    # penalty branches only fire once the tc envelope is widened
    lo = LOWER_BOUNDS.copy()
    hi = UPPER_BOUNDS.copy()
    lo[2:8] = -50.0
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


def test_degenerate_thickness_is_penalized():
    p = _permissive_problem()
    x = TABLE5.copy()
    x[5] = -1.0  # non-positive section right at a sampled depth
    e = p.evaluate(x)
    assert not e.feasible
    assert e.fit1 == PENALTY_FIT1 and e.fit2 == PENALTY_FIT2
    assert e.violation > 0.0
    assert e.diagnostics["degenerate"] == "thickness"


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


def test_non_finite_design_raises(dam_problem):
    for bad in (np.nan, np.inf, -np.inf):
        x = TABLE5.copy()
        x[3] = bad
        with pytest.raises(ValueError, match="row 0: tc2"):
            dam_problem.evaluate(x)
        X = np.vstack([TABLE5, TABLE5, x])
        with pytest.raises(ValueError, match="row 2: tc2"):
            dam_problem.evaluate_batch(X)


# order 31 puts a volume node at x = 0; 8 stress depths fall between the
# levels, so the stress sections come from the level sums, not the lookup
@pytest.mark.parametrize("setting", [{}, {"quadrature_order": 31}, {"n_depths": 8}],
                         ids=["default", "quadrature_order=31", "n_depths=8"])
def test_batch_equals_rowwise_reference(setting):
    problem = DamProblem(**setting)
    rng = np.random.default_rng(2024)
    X = LOWER_BOUNDS + rng.random((200, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    F, viol = problem.evaluate_batch(X)
    F_ref, viol_ref = evaluate_rowwise(problem, X)
    assert np.array_equal(F, F_ref) and np.array_equal(viol, viol_ref)


def test_batch_equals_rowwise_reference_with_degenerate_rows():
    p = _permissive_problem()
    thickness = TABLE5.copy()
    thickness[5] = -1.0
    thin_crest = TABLE5.copy()
    thin_crest[2] = -20.0
    rng = np.random.default_rng(5)
    normal = LOWER_BOUNDS + rng.random((4, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    X = np.vstack([normal[:2], thin_crest, TABLE5, thickness, normal[2:]])
    b = p._evaluate(X)
    F, viol = b.F, b.violation
    F_ref, viol_ref = evaluate_rowwise(p, X)
    assert np.array_equal(F, F_ref) and np.array_equal(viol, viol_ref)
    assert list(b.degenerate) == [None, None, "thickness", None, "thickness", None, None]
    assert np.isfinite(b.constraints).all()
    assert np.array_equal(F[[2, 4]], [[PENALTY_FIT1, PENALTY_FIT2]] * 2)
    assert viol[2] >= 1.0 and viol[4] >= 1.0
    assert np.all(F[[0, 1, 3, 5, 6], 0] < PENALTY_FIT1)


def test_batch_of_one_and_empty_batch(dam_problem):
    F, viol = dam_problem.evaluate_batch(TABLE5[None, :])
    F_ref, viol_ref = evaluate_rowwise(dam_problem, TABLE5[None, :])
    assert np.array_equal(F, F_ref) and np.array_equal(viol, viol_ref)
    F, viol = dam_problem.evaluate_batch(np.empty((0, 20)))
    assert F.shape == (0, 2) and viol.shape == (0,)


def test_bounds_property():
    p = DamProblem()
    lo, hi = p.bounds
    assert np.array_equal(lo, LOWER_BOUNDS) and np.array_equal(hi, UPPER_BOUNDS)
    assert p.dimension == 20
    assert np.all(lo < hi)


def _thin_problem():
    # tc6 may go down to 0.5, below the canonical floor of 12
    lo = LOWER_BOUNDS.copy()
    lo[7] = 0.5
    return dataclasses.replace(DamProblem(), lower=lo)


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
    F_ref, viol_ref = evaluate_rowwise(p, X)
    assert np.array_equal(b.F, F_ref) and np.array_equal(b.violation, viol_ref)
    # the scalar criterion keeps raising for direct callers
    states = grid_states(p, X[0])
    with pytest.raises(EvaluationError):
        criterion_values(states, p.strength, p.coeffs)
    assert np.isnan(criterion_values(states, p.strength, p.coeffs, strict=False)).any()


def test_validity_warnings_weighted_by_multiplicity():
    p = _thin_problem()
    x = _table5_with_tc6(2.0)
    e = p.evaluate(x)
    assert e.fit2 == pytest.approx(22.37, abs=0.01)
    # two distinct (depth, face) states, each standing for 9 arc stations
    assert e.diagnostics["validity_warnings"] == 18
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
    F, viol = dam_problem.evaluate_batch(X)
    F_ref, viol_ref = evaluate_rowwise(dam_problem, X)
    assert np.array_equal(F, F_ref) and np.array_equal(viol, viol_ref)


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
    z = np.linspace(0.0, p.levels.h, 101)
    weights = np.column_stack([lagrange_basis(z, i, p.levels) for i in range(1, 7)])
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
    F_ref, viol_ref = evaluate_rowwise(p, X)
    assert np.array_equal(b.F, F_ref) and np.array_equal(b.violation, viol_ref)
    assert list(b.degenerate) == [None] * len(X)


def test_radius_certificate_from_bounds():
    # every config keeps its bounds inside the canonical box, over which
    # the least radius is 21.29 m whatever the height
    DamProblem()
    _narrowed_problem()
    for h in (15.0, 500.0):
        cfg = default_config()
        cfg["geometry"]["h"] = h
        assert make_problem(cfg).levels.h == h
