import numpy as np
import pytest

from archdam import DamProblem
from archdam.objectives import LOWER_BOUNDS, PENALTY_FIT1, PENALTY_FIT2, UPPER_BOUNDS

from _oracles import evaluate_rowwise
from conftest import TABLE5


def test_reference_design_regression(dam_problem, table5_design):
    e = dam_problem.evaluate(table5_design)
    assert e.feasible and e.violation == 0.0
    assert e.fit1 == pytest.approx(317086.689073, rel=1e-9)
    assert e.fit2 == pytest.approx(-0.036224431, abs=1e-8)
    assert e.fit2 < 0.0
    assert e.diagnostics["validity_warnings"] == 0
    assert len(e.diagnostics["constraints"]) == 9


def test_evaluate_accepts_array_and_vector(dam_problem, table5_design):
    ea = dam_problem.evaluate(TABLE5)
    ev = dam_problem.evaluate(table5_design)
    assert ea.fit1 == ev.fit1 and ea.fit2 == ev.fit2


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
    # penalty branches only fire once the envelope is widened
    lo = LOWER_BOUNDS.copy()
    hi = UPPER_BOUNDS.copy()
    lo[2:] = -50.0
    hi[2:] = 200.0
    return DamProblem(lower=lo, upper=hi)


def test_degenerate_radius_is_penalized():
    p = _permissive_problem()
    x = TABLE5.copy()
    x[8:14] = [135.0, 39.0, 135.0, 39.0, 135.0, 39.0]  # dips negative between nodes
    e = p.evaluate(x)
    assert not e.feasible
    assert e.fit1 == PENALTY_FIT1 and e.fit2 == PENALTY_FIT2
    assert e.violation > 0.0
    assert e.diagnostics["degenerate"] == "radius"


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


def test_batch_equals_rowwise_reference(dam_problem):
    rng = np.random.default_rng(2024)
    X = LOWER_BOUNDS + rng.random((200, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    F, viol = dam_problem.evaluate_batch(X)
    F_ref, viol_ref = evaluate_rowwise(dam_problem, X)
    assert np.array_equal(F, F_ref) and np.array_equal(viol, viol_ref)


def test_batch_equals_rowwise_reference_with_degenerate_rows():
    p = _permissive_problem()
    radius = TABLE5.copy()
    radius[8:14] = [135.0, 39.0, 135.0, 39.0, 135.0, 39.0]
    thickness = TABLE5.copy()
    thickness[5] = -1.0
    rng = np.random.default_rng(5)
    normal = LOWER_BOUNDS + rng.random((4, 20)) * (UPPER_BOUNDS - LOWER_BOUNDS)
    X = np.vstack([normal[:2], radius, TABLE5, thickness, normal[2:]])
    F, viol = p.evaluate_batch(X)
    F_ref, viol_ref = evaluate_rowwise(p, X)
    assert np.array_equal(F, F_ref) and np.array_equal(viol, viol_ref)
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
