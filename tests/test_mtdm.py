import numpy as np
import pytest

from archdam import Scenario, UndefinedSetError, acceptable_mask, rank_R

from _oracles import tournament_T, tournament_t


def test_pairwise_tournament():
    # a wins the objective-i duel iff b's value is strictly larger
    assert tournament_t((1.0, 5.0), (2.0, 4.0), 0) == 1
    assert tournament_t((1.0, 5.0), (2.0, 4.0), 1) == 0
    assert tournament_t((2.0, 2.0), (2.0, 9.0), 0) == 0  # ties score nothing


def test_tournament_share():
    F = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    assert tournament_T(0, F, 0) == pytest.approx(1.0)
    assert tournament_T(1, F, 0) == pytest.approx(0.5)
    assert tournament_T(2, F, 0) == pytest.approx(0.0)
    assert tournament_T(2, F, 1) == pytest.approx(1.0)
    with pytest.raises(UndefinedSetError):
        tournament_T(0, F[:1], 0)


def test_hand_case():
    F = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    res = rank_R(F, Scenario(name="even", weights=(0.5, 0.5)))
    assert res.R == pytest.approx([0.0, np.sqrt(0.5), 0.0], abs=1e-12)
    assert res.order[0] == 1
    assert res.best == 1


def test_dominating_point_scores_one():
    F = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
    res = rank_R(F, Scenario(name="even", weights=(0.5, 0.5)))
    assert res.R[0] == pytest.approx(1.0)
    assert np.all(res.R <= 1.0) and np.all(res.R >= 0.0)


def test_single_member_set_is_undefined():
    with pytest.raises(UndefinedSetError):
        rank_R(np.array([[1.0, 2.0]]), Scenario(name="even", weights=(0.5, 0.5)))


def test_permutation_invariance():
    rng = np.random.default_rng(31)
    F = rng.random((12, 2))
    sc = Scenario(name="s", weights=(0.3, 0.7))
    base = rank_R(F, sc)
    for _ in range(5):
        perm = rng.permutation(12)
        res = rank_R(F[perm], sc)
        assert res.R == pytest.approx(base.R[perm], abs=1e-12)
        assert np.array_equal(perm[res.order], base.order)


def test_monotone_transform_invariance():
    # only win counts enter R, so any strictly increasing per-objective
    # remap of the values leaves the scores untouched
    rng = np.random.default_rng(37)
    F = rng.random((15, 2))
    sc = Scenario(name="s", weights=(0.6, 0.4))
    base = rank_R(F, sc)
    G = np.column_stack([np.exp(3.0 * F[:, 0]), F[:, 1] ** 3 + 10.0])
    res = rank_R(G, sc)
    assert res.R == pytest.approx(base.R, abs=1e-12)


def test_duplicates_share_scores():
    F = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.5]])
    res = rank_R(F, Scenario(name="even", weights=(0.5, 0.5)))
    assert res.R[0] == res.R[1]


def test_weight_sweep_moves_along_front():
    # concave trade-off: heavier weight on the first objective picks
    # designs that win more first-objective duels, so its value drops
    rng = np.random.default_rng(43)
    t = np.sort(rng.random(40))
    F = np.column_stack([t, 1.0 - np.sqrt(t)])
    picks = []
    for w1 in (0.9, 0.7, 0.5, 0.3, 0.1):
        sc = Scenario(name=f"w{w1}", weights=(w1, 1.0 - w1))
        picks.append(F[rank_R(F, sc).best])
    f1 = [p[0] for p in picks]
    f2 = [p[1] for p in picks]
    assert all(a <= b + 1e-12 for a, b in zip(f1, f1[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(f2, f2[1:]))


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="bad", weights=(0.5, 0.6))
    with pytest.raises(ValueError):
        Scenario(name="bad", weights=(-0.2, 1.2))
    # the checks hold for positional arguments as well
    with pytest.raises(ValueError, match="weights must sum to 1"):
        Scenario("bad", (0.5, 0.6))
    with pytest.raises(ValueError, match="weights must be strictly positive"):
        Scenario("bad", (-0.2, 1.2))
    with pytest.raises(ValueError):
        # weight count must match the objective count at ranking time
        rank_R(np.array([[1.0, 2.0], [2.0, 1.0]]), Scenario(name="one", weights=(1.0,)))


def test_acceptable_mask():
    F = np.array([[1.0, -0.2], [2.0, 0.0], [3.0, 0.4]])
    assert np.array_equal(acceptable_mask(F), [True, True, False])


def test_order_breaks_ties_deterministically():
    # two zero-R corners: the safer (lower second objective) one first
    F = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    res = rank_R(F, Scenario(name="even", weights=(0.5, 0.5)))
    assert list(res.order) == [1, 2, 0]
