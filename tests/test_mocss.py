import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import archdam
from archdam import MocssConfig, get_benchmark, pareto_rank, run_mocss
from archdam.benchmarks import hypervolume2d
from archdam.mocss import NonFiniteError, _archive_update, _forces, _prune_archive, _repair

from _oracles import (brute_force_rank, force_reference, forces_masked, prune_reference,
                      random_population)


def test_pareto_rank_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(60):
        F, viol = random_population(rng)
        assert np.array_equal(pareto_rank(F, viol), brute_force_rank(F, viol))


def test_pareto_rank_simple_cases():
    F = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    assert np.array_equal(pareto_rank(F), [1, 1, 1])
    F = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert np.array_equal(pareto_rank(F), [1, 2, 3])
    # duplicates share a rank
    F = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 0.5]])
    assert np.array_equal(pareto_rank(F), [1, 1, 1])
    # any infeasible point ranks behind every feasible one
    F = np.array([[0.0, 0.0], [5.0, 5.0]])
    viol = np.array([0.3, 0.0])
    r = pareto_rank(F, viol)
    assert r[1] < r[0]


def test_pareto_rank_tied_violations_and_no_feasible_row():
    rng = np.random.default_rng(43)
    for trial in range(200):
        F, viol = random_population(rng)
        # violations drawn from a few levels, so infeasible rows tie
        levels = np.array([0.0, 0.25, 0.5, 1.0])
        viol = levels[rng.integers(0 if trial % 2 else 1, len(levels), len(F))]
        assert np.array_equal(pareto_rank(F, viol), brute_force_rank(F, viol))
    F = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0], [3.0, 0.0]])
    assert np.array_equal(pareto_rank(F, [0.5, 0.5, 0.1, 2.0]), [2, 2, 1, 3])


def test_pareto_rank_rejects_non_finite_rows():
    with pytest.raises(NonFiniteError, match="row 1"):
        pareto_rank([[1.0, 1.0], [np.nan, 0.5], [0.5, 2.0]])
    with pytest.raises(NonFiniteError, match="row 2"):
        pareto_rank([[1.0, 1.0], [0.0, 0.5], [np.inf, 2.0]])
    with pytest.raises(NonFiniteError, match="row 0"):
        pareto_rank([[1.0, 1.0], [0.0, 0.5]], [np.nan, 0.0])


def test_pareto_rank_needs_two_objectives():
    for F in (np.zeros((4, 1)), np.zeros((4, 3)), [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="two objective columns, got [13]"):
            pareto_rank(F)
    assert np.array_equal(pareto_rank(np.zeros((0, 2))), np.zeros(0, dtype=int))


@st.composite
def _tied_populations(draw):
    """Up to 200 rows on a coarse grid, so equal f1, equal f2 and
    identical rows are common, with violations from a few levels."""
    n = draw(st.integers(1, 200))
    F = draw(arrays(float, (n, 2), elements=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.25])))
    viol = draw(arrays(float, n, elements=st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0])))
    return F, viol


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_tied_populations())
def test_pareto_rank_property_matches_brute_force(population):
    F, viol = population
    assert np.array_equal(pareto_rank(F, viol), brute_force_rank(F, viol))


def test_prune_matches_reference():
    rng = np.random.default_rng(47)
    for trial in range(400):
        n = int(rng.integers(2, 41))
        if trial % 3 == 0:
            # continuous objectives with some duplicated rows
            F = rng.random((n, 2))
            F[rng.integers(0, n, n // 4)] = F[rng.integers(0, n, n // 4)]
        elif trial % 3 == 1:
            # a front on an integer anti-diagonal: equal neighbour distances
            f1 = rng.integers(0, 12, n).astype(float)
            F = np.column_stack([f1, 12.0 - f1])
        else:
            # a coarse grid: duplicates, equal distances, shared extremes
            F = rng.integers(0, 4, (n, 2)).astype(float)
        X = np.arange(n, dtype=float)[:, None]
        viol = np.zeros(n)
        capacity = (1, 2, int(rng.integers(1, n + 1)))[trial // 3 % 3]
        got = _prune_archive(X, F, viol, capacity, np.lexsort((F[:, 1], F[:, 0])))
        want = prune_reference(X, F, viol, capacity)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), trial
    for trial in range(140):
        n = int(rng.integers(100, 131))
        f1 = np.sort(rng.random(n))
        if trial % 7 == 0:
            # a ZDT1-shaped front, mutually non-dominated, over capacity
            F = np.column_stack([f1, 1.0 - np.sqrt(f1)])
        elif trial % 7 == 1:
            # the worst f2 is negative, so the f2 weight is negative
            F = np.column_stack([f1, -0.5 - np.sqrt(f1)])
        elif trial % 7 == 2:
            # rows that differ from another only in the last bit
            F = np.column_stack([f1, 1.0 - np.sqrt(f1)])
            k = rng.integers(0, n, n // 2)
            F[k] = np.nextafter(F[k - 1], np.where(rng.random((len(k), 2)) < 0.5, -np.inf, np.inf))
        elif trial % 7 == 3:
            # not monotone, with f1 nearly constant: long neighbour walks
            F = np.column_stack([0.5 + rng.integers(-2, 3, n) * 2.0**-53, rng.random(n)])
        elif trial % 7 == 4:
            # a front with repeated rows: the row two out is no farther
            # than the adjacent one, so the first search walks
            F = np.column_stack([f1, 1.0 - np.sqrt(f1)])
            k = rng.integers(1, n, n // 4)
            F[k] = F[k - 1]
        elif trial % 7 == 5:
            # an integer anti-diagonal with repeats: equal gaps on both
            # sides and two rows out
            f1 = rng.integers(0, 40, n).astype(float)
            F = np.column_stack([f1, 40.0 - f1])
        else:
            # an evenly spaced anti-diagonal, so a row's two gaps are equal
            # and the lower row index decides, with one value repeated:
            # row 0 lies between rows 3 and 1 (equal) and row 2, so its
            # search must walk past row 3 to row 1, which it deletes once
            # row 1 has deleted row 3
            v = int(rng.integers(2, n - 3))
            f1 = np.empty(n)
            f1[:4] = v, v - 1, v + 1, v - 1
            f1[4:] = rng.permutation(np.setdiff1d(np.arange(n - 1.0), [v - 1, v, v + 1]))
            F = np.column_stack([f1, n - f1])
        X = np.arange(n, dtype=float)[:, None]
        viol = np.zeros(n)
        got = _prune_archive(X, F, viol, 100, np.lexsort((F[:, 1], F[:, 0])))
        want = prune_reference(X, F, viol, 100)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), trial
    # dx * dx underflows to 0 here, so |dx| > 0 would end the walk from
    # row 0 at row 3, before row 1 ties row 2 at distance 0 with the lower
    # index; sqrt(dx * dx) is the bound that reaches it
    a = 1e-170
    F = np.array([[0.0, 0.0], [a, 0.0], [0.0, -a], [a, -5 * a], [0.0, a]])
    X, viol = np.arange(5.0)[:, None], np.zeros(5)
    got = _prune_archive(X, F, viol, 4, np.lexsort((F[:, 1], F[:, 0])))
    assert np.array_equal(got[0].ravel(), [0.0, 2.0, 3.0, 4.0])
    assert all(np.array_equal(g, w) for g, w in zip(got, prune_reference(X, F, viol, 4)))



def _prune_both(X, F, capacity, order=None):
    """_prune_archive against prune_reference on the same rows, its fourth
    output against the kept objective rows in (f1, f2) order."""
    viol = np.zeros(len(F))
    if order is None:
        order = np.lexsort((F[:, 1], F[:, 0]))
    got = _prune_archive(X, F, viol, capacity, order)
    want = prune_reference(X, F, viol, capacity)
    kept = want[1]
    return (all(np.array_equal(g, w) for g, w in zip(got, want))
            and got[3].tobytes() == kept[np.lexsort((kept[:, 1], kept[:, 0]))].tobytes())


def test_prune_chain_ties_match_reference():
    rng = np.random.default_rng(59)
    for trial in range(120):
        n = int(rng.integers(8, 40))
        f1 = np.sort(rng.random(n))
        F = np.column_stack([f1, 1.0 - np.sqrt(f1)])
        capacity = int(rng.integers(1, n))
        if trial % 4 == 0:
            # three identical rows, given in a chain order that puts the
            # lowest-indexed two apart: the reference breaks that pair, which
            # is not adjacent in the chain
            a, b, c = np.sort(rng.choice(n, 3, replace=False))
            F[[b, c]] = F[a]
            order = np.lexsort((F[:, 1], F[:, 0]))
            k = np.flatnonzero(np.isin(order, [a, b, c]))
            order[k] = a, c, b
            assert _prune_both(np.arange(n, dtype=float)[:, None], F, capacity, order), trial
        elif trial % 4 == 1:
            # rows of size 1e-170, whose squared gaps all underflow, so
            # every pair is at distance 0 and the two lowest row indices
            # go first
            X = np.arange(n, dtype=float)[:, None]
            perm = rng.permutation(n)
            assert _prune_both(X, F[perm] * 1e-170, capacity), trial
        elif trial % 4 == 2:
            # a run of rows 1e-170 apart, whose squared gaps underflow, so
            # rows that differ lie at distance 0, in shuffled row order
            m = int(rng.integers(3, 8))
            F[:m] = np.column_stack([np.arange(m) * 1e-170, np.ones(m)])
            perm = rng.permutation(n)
            assert _prune_both(np.arange(n, dtype=float)[:, None], F[perm], capacity), trial
        else:
            # integer steps of 1 and 2 along an anti-diagonal whose worst
            # values are equal, so the weights are exact: deleting a row
            # between two gaps of 1 opens a gap equal to the gaps of 2
            f1 = np.concatenate(([0.0], np.cumsum(rng.integers(1, 3, n - 1)))).astype(float)
            F = np.column_stack([f1, f1[-1] - f1])[rng.permutation(n)]
            assert _prune_both(np.arange(n, dtype=float)[:, None], F, capacity), trial

def _small_config(**kw):
    base = dict(n_cps=16, iterations=20, archive_capacity=24, seed=5)
    base.update(kw)
    return MocssConfig(**base)


def test_determinism_same_seed():
    problem = get_benchmark("SCH")
    a = run_mocss(problem, _small_config())
    b = run_mocss(problem, _small_config())
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.objectives, b.objectives)
    assert np.array_equal(a.violations, b.violations)
    assert a.n_evaluations == b.n_evaluations
    assert a.log == b.log


def test_different_seed_changes_search():
    problem = get_benchmark("ZDT1")
    a = run_mocss(problem, _small_config(seed=5))
    b = run_mocss(problem, _small_config(seed=6))
    assert a.objectives.shape != b.objectives.shape or not np.array_equal(
        a.objectives, b.objectives)


def test_zero_iterations_archive_is_initial_front():
    problem = get_benchmark("SCH")
    cfg = _small_config(iterations=0, archive_capacity=100)
    res = run_mocss(problem, cfg)
    # reproduce the initialization draw and keep its nondominated set
    rng = np.random.default_rng(cfg.seed)
    X = rng.random((cfg.n_cps, 1))
    lo, hi = problem.bounds
    F, viol = problem.evaluate_batch(lo + X * (hi - lo))
    first = pareto_rank(F, viol) == 1
    assert res.n_evaluations == cfg.n_cps
    assert np.array_equal(np.sort(res.objectives[:, 0]), np.sort(F[first][:, 0]))


def test_archive_invariants_every_iteration():
    problem = get_benchmark("ZDT1")
    cap = 20
    seen = []

    def hook(it, aF, aV):
        seen.append(it)
        assert len(aF) <= cap
        feas = aV == 0.0
        Ff = aF[feas]
        # pairwise nondomination over the feasible members
        le = (Ff[:, None, :] <= Ff[None, :, :]).all(axis=2)
        lt = (Ff[:, None, :] < Ff[None, :, :]).any(axis=2)
        dom = le & lt
        assert not dom.any()

    run_mocss(problem, _small_config(archive_capacity=cap, iterations=15), hook=hook)
    assert seen == list(range(16))  # initial archive plus every iteration


def test_positions_stay_inside_bounds():
    problem = get_benchmark("ZDT1")

    class Watch:
        name = "watch"
        bounds = problem.bounds
        hv_reference = problem.hv_reference

        def evaluate_batch(self, X):
            X = np.atleast_2d(X)
            assert np.all(X >= problem.lower - 1e-12)
            assert np.all(X <= problem.upper + 1e-12)
            return problem.evaluate_batch(X)

    res = run_mocss(Watch(), _small_config(iterations=25))
    lo, hi = problem.bounds
    assert np.all(res.positions >= lo - 1e-12) and np.all(res.positions <= hi + 1e-12)


def test_capacity_pruning_keeps_extremes():
    problem = get_benchmark("SCH")
    cfg = _small_config(n_cps=30, iterations=40, archive_capacity=10, seed=2)
    res = run_mocss(problem, cfg)
    assert len(res.objectives) <= 10
    # the prune should never drop the per-objective best corners
    f = res.objectives
    assert f[:, 0].min() < 0.05 and f[:, 1].min() < 0.05


def test_progress_log_fields():
    problem = get_benchmark("SCH")
    res = run_mocss(problem, _small_config(iterations=8), hv_reference=(4.5, 4.5))
    assert len(res.log) == 9  # initial state plus one entry per iteration
    for entry in res.log:
        assert set(entry) == {"iter", "archive_size", "fit1_min", "fit2_min", "hypervolume"}
        assert entry["archive_size"] >= 1
        assert entry["hypervolume"] is None or entry["hypervolume"] >= 0.0
    hv = [e["hypervolume"] for e in res.log]
    assert hv[-1] >= hv[0] - 1e-12



@pytest.mark.parametrize("name, kw", [
    ("ZDT1", dict(archive_capacity=8, iterations=15)),
    ("SCH", dict(archive_capacity=6)),
    ("dam", dict(n_cps=40, archive_capacity=8, seed=0)),
])
def test_logged_front_figures_equal_hypervolume2d(name, kw):
    # the log reads the CM's (f1, f2) order from the update; the figures
    # must equal those of the whole CM, every iteration, bit for bit
    problem = archdam.make_problem(archdam.default_config()) if name == "dam" else get_benchmark(name)
    seen = []

    def hook(it, aF, aV):
        feas = aV == 0.0
        seen.append(None if not feas.any() else (
            aF[feas, 0].min(), aF[feas, 1].min(),
            hypervolume2d(aF[feas], problem.hv_reference, strict=False)))

    res = run_mocss(problem, _small_config(**kw), hook=hook)
    logged = [None if e["fit1_min"] is None else (e["fit1_min"], e["fit2_min"], e["hypervolume"])
              for e in res.log]
    assert logged == seen
    assert None in seen if name == "dam" else None not in seen
    if name != "dam":
        assert max(e["archive_size"] for e in res.log) == kw["archive_capacity"]

def test_evaluation_budget_accounting():
    problem = get_benchmark("SCH")
    cfg = _small_config(n_cps=12, iterations=10)
    res = run_mocss(problem, cfg)
    # init + per-iteration moves + competition reseeds; never more than
    # one full population per iteration plus the reseeded fraction
    n_rep = int(cfg.replace_fraction * cfg.n_cps)
    assert res.n_evaluations >= cfg.n_cps * (cfg.iterations + 1)
    assert res.n_evaluations <= cfg.n_cps * (cfg.iterations + 1) + 2 * n_rep * cfg.iterations


def test_config_validation():
    with pytest.raises(ValueError):
        MocssConfig(n_cps=0)
    with pytest.raises(ValueError):
        MocssConfig(iterations=-1)
    with pytest.raises(ValueError):
        MocssConfig(archive_capacity=0)
    with pytest.raises(ValueError):
        MocssConfig(replace_fraction=1.5)
    with pytest.raises(ValueError):
        MocssConfig(cmcr=-0.1)
    # numpy's generator takes no negative seed; the schema's mocss.seed floor
    seed = "^" + re.escape("config schema violation at $.mocss.seed: -1 is less than the "
                           "minimum of 0") + "$"
    with pytest.raises(ValueError, match=seed):
        MocssConfig(seed=-1)
    # the checks hold for positional arguments as well
    with pytest.raises(ValueError, match="^" + re.escape(
            "config schema violation at $.mocss.n_cps: 1 is less than the minimum of 2") + "$"):
        MocssConfig(1)
    with pytest.raises(ValueError, match=seed):
        MocssConfig(100, 200, 100, 2.0, 2.0, 1.0, 0.98, 0.5, 0.02, 0.8, 0.3, -1)


def test_coincident_particles_are_safe():
    # a population collapsed onto one point must not divide by zero
    problem = get_benchmark("SCH")

    class Collapsed:
        name = "collapsed"
        bounds = problem.bounds
        hv_reference = problem.hv_reference

        def __init__(self):
            self.first = True

        def evaluate_batch(self, X):
            X = np.atleast_2d(X)
            if self.first:
                self.first = False
                X = np.full_like(X, 1.5)
            return problem.evaluate_batch(X)

    res = run_mocss(Collapsed(), _small_config(iterations=5))
    assert np.isfinite(res.objectives).all()


def _archive_update_like_np_unique(X, F, V):
    """_archive_update on the union split in two equals the first front,
    in order, of the rows np.unique(axis=0) keeps (each design's first
    occurrence, -0.0 equal to 0.0); bytes, so that the kept one of -0.0
    and 0.0 counts too."""
    n = len(X)
    _, first = np.unique(X, axis=0, return_index=True)
    keep = np.sort(first)
    Xf, Ff, Vf = (a[keep][pareto_rank(F[keep], V[keep]) == 1] for a in (X, F, V))
    want = _prune_archive(Xf, Ff, Vf, n, np.lexsort((Ff[:, 1], Ff[:, 0])))
    got = _archive_update(X[:n // 2], F[:n // 2], V[:n // 2],
                          X[n // 2:], F[n // 2:], V[n // 2:], n)
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_archive_update_drops_repeated_rows_like_np_unique():
    # a repeated design carries one objective row and violation, as
    # run_mocss's row-by-row evaluation gives it, so they are drawn per
    # distinct design
    rng = np.random.default_rng(53)
    for trial in range(150):
        n, d = int(rng.integers(1, 60)), int(rng.integers(1, 6))
        X = rng.integers(-1, 2, (n, d)).astype(float)  # many repeated rows
        X[rng.random((n, d)) < 0.2] = -0.0
        design = np.unique(X, axis=0, return_inverse=True)[1].ravel()
        m = design.max() + 1
        F, V = rng.random((m, 2)), np.zeros(m)
        if trial % 5 in (3, 4):
            # distinct designs that share objective rows
            F = rng.integers(0, 3, (m, 2)).astype(float)
        if trial % 5 in (1, 4):
            # nothing feasible; the least violation is tied
            V = rng.integers(1, 3, m) * 0.5
        elif trial % 5 == 2:
            # feasible and infeasible rows mixed
            V = np.where(rng.random(m) < 0.5, rng.integers(1, 3, m) * 0.5, 0.0)
        assert _archive_update_like_np_unique(X, F[design], V[design]), trial
    # a run of distinct designs sharing one objective row, with a repeated
    # design at its first and at its last place, beside a row off the run,
    # feasible and with nothing feasible
    a, b, c, e = [0.0, 1.0], [1.0, 0.0], [-0.0, 0.5], [0.5, 0.5]
    for rows in ([a, b, c, a], [b, a, c, c], [a, a, b, c, a], [e, a, b, e, c, a],
                 [c, e, b, a, [0.0, 0.5]]):
        X = np.array(rows)
        off = (X == e).all(axis=1)
        F = np.where(off[:, None], [0.1, 0.9], [0.2, 0.2])
        for V in (np.zeros(len(X)), np.full(len(X), 0.5), np.where(off, 0.25, 0.5)):
            assert _archive_update_like_np_unique(X, F, V), rows



def test_archive_update_equals_reference_composition():
    # over capacity, with tied objective rows and repeated designs: the
    # first front, then each design's first occurrence, then the prune
    rng = np.random.default_rng(61)
    for trial in range(150):
        n = int(rng.integers(4, 70))
        X = rng.integers(0, 4, (n, 2)).astype(float)  # many repeated designs
        design = np.unique(X, axis=0, return_inverse=True)[1].ravel()
        m = design.max() + 1
        if trial % 3 == 0:
            F = rng.integers(0, 5, (m, 2)).astype(float)  # shared objective rows
        else:
            f1 = rng.integers(0, 12, m).astype(float)  # a front with repeats
            F = np.column_stack([f1, 12.0 - f1 + rng.integers(0, 2, m) * (trial % 3 == 2)])
        V = np.where(rng.random(m) < 0.2, 0.5, 0.0) if trial % 5 else np.full(m, 0.5)
        F, V = F[design], V[design]
        capacity = int(rng.integers(1, n + 1))
        first = np.flatnonzero(brute_force_rank(F, V) == 1)
        keep = np.sort(first[np.unique(X[first] + 0.0, axis=0, return_index=True)[1]])
        want = prune_reference(X[keep], F[keep], V[keep], capacity)
        k = n // 2
        got = _archive_update(X[:k], F[:k], V[:k], X[k:], F[k:], V[k:], capacity)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), trial
        assert got[3].tobytes() == want[1][np.lexsort(want[1].T[::-1])].tobytes(), trial

def test_forces_match_pairwise_reference():
    rng = np.random.default_rng(59)
    for trial in range(60):
        n, d = int(rng.integers(2, 80)), (1, 5, 20, 30)[trial % 4]
        X = rng.random((n, d))
        # duplicated rows: coincident particles exert no force
        X[rng.integers(0, n, n // 3)] = X[rng.integers(0, n, n // 3)]
        q = rng.random(n)
        gate = rng.choice([-1.0, 0.0, 1.0], size=(n, n))
        np.fill_diagonal(gate, 0.0)
        # radii below, near and above the typical distance: both branches
        radius = (0.3, 0.9, 1.7, 4.0)[trial // 4 % 4] * np.sqrt(d / 6.0)
        with np.errstate(all="raise"):
            got = _forces(X, q, gate, radius)
        want = force_reference(X, q, gate, radius)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), trial
    # a collapsed population, where the reference is exactly 0, feels no
    # force beyond rounding
    X = np.full((40, 30), 0.37)
    gate = np.ones((40, 40))
    np.fill_diagonal(gate, 0.0)
    for radius in (0.5, 1.0, 3.0):
        with np.errstate(all="raise"):
            force = _forces(X, np.linspace(0.0, 1.0, 40), gate, radius)
        assert np.abs(force).max() <= 1e-12


def test_forces_equal_masked_branches_bit_for_bit():
    # the linear branch over the whole matrix, and the inverse-square one
    # only when some pair lies outside the radius, give the bits of one
    # masked pass per branch, with no floating-point warning
    rng = np.random.default_rng(71)
    cases = []
    for trial in range(48):
        n, d = int(rng.integers(2, 100)), (1, 2, 20, 30)[trial % 4]
        X = rng.random((n, d))
        X[rng.integers(0, n, n // 4)] = X[rng.integers(0, n, n // 4)]  # coincident rows
        q = rng.random(n)
        q[rng.integers(0, n)] = 0.0  # the worst CP carries no charge
        gate = rng.choice([-1.0, 0.0, 1.0], size=(n, n))
        np.fill_diagonal(gate, 0.0)
        # every pair inside the radius, both branches, and every pair of
        # distinct rows outside it
        radius = (10.0 * np.sqrt(d), 0.4 * np.sqrt(d), 1e-3)[trial % 3]
        cases.append((X, q, gate, radius))
    # pairs at exactly r == radius, and coincident ones, both in one matrix
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    gate = np.ones((5, 5))
    np.fill_diagonal(gate, 0.0)
    cases += [(X, np.linspace(0.0, 1.0, 5), gate, radius) for radius in (1.0, 2.0)]
    for X, q, gate, radius in cases:
        with np.errstate(all="raise"):
            got = _forces(X, q, gate, radius)
            want = forces_masked(X, q, gate, radius)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_repair_contract():
    rng = np.random.default_rng(61)
    for trial in range(40):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 31))
        X = rng.uniform(-0.6, 1.6, (n, d))
        members = rng.random((int(rng.integers(1, 30)), d))
        leaders = rng.random((int(rng.integers(1, n + 1)), d))
        oob = (X < 0.0) | (X > 1.0)
        for cmcr, par, bw in ((0.98, 0.5, 0.02), (1.0, 0.0, 0.02), (0.0, 0.5, 0.02),
                              (1.0, 1.0, 0.3)):
            Y = X.copy()
            _repair(Y, members, leaders, bw, cmcr, par, np.random.default_rng(trial))
            assert np.array_equal(Y[~oob], X[~oob])
            assert np.all((Y >= 0.0) & (Y <= 1.0))
            rows, cols = np.nonzero(oob)
            got = Y[rows, cols]
            # distance of each repaired value to its column's CM values
            gap = np.abs(got[:, None] - members[:, cols].T).min(axis=1)
            if cmcr == 1.0 and par == 0.0:
                assert np.all(gap == 0.0)  # copied from some CM member
            if cmcr == 1.0:
                assert np.all(gap <= bw)  # a pitch step is capped by bw
            if cmcr == 0.0:
                fresh = np.random.default_rng(trial).random(len(rows))  # the first block
                assert np.array_equal(got, fresh)

    # the draws depend on how many entries violated, not on which
    X = np.full((10, 6), 0.5)
    Y = X.copy()
    X[[0, 3, 9], [1, 5, 0]] = (-0.2, 1.4, 2.0)
    Y[[2, 4, 7], [2, 3, 4]] = (1.1, -0.5, -3.0)
    members, leaders = np.full((4, 6), 0.25), np.full((3, 6), 0.75)
    states = []
    for Z in (X, Y):
        rng = np.random.default_rng(67)
        _repair(Z, members, leaders, 0.02, 0.98, 0.5, rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]
    # one violating entry, not three, leaves the generator elsewhere
    Y[5, 5] = 1.5
    rng = np.random.default_rng(67)
    _repair(Y, members, leaders, 0.02, 0.98, 0.5, rng)
    assert rng.bit_generator.state != states[0]
