"""The benchmark's own oracles against closed forms and hand-made cases."""

import numpy as np

import oracles

H, W_CREST, W_BASE = 142.65, 135.0, 47.25


def test_volume_quadrature_matches_closed_form_for_parallel_faces():
    # ru = rd and constant tc: the faces are parallel, tc apart everywhere,
    # so V = tc * (area of the trapezoid canyon) = tc * h * (w_crest + w_base)
    radii = np.array([130.0, 115.0, 100.0, 80.0, 60.0, 45.0])
    x = np.concatenate([[0.1, 0.6], np.full(6, 7.5), radii, radii])
    exact = 7.5 * H * (W_CREST + W_BASE)
    assert abs(oracles.dam_volume(x, H, W_CREST, W_BASE) - exact) <= 1e-12 * exact
    assert oracles.faces_apart(x, H, W_CREST, W_BASE)


def test_lagrange_reproduces_a_quintic():
    nodes = np.linspace(0.0, H, 6)
    z = np.linspace(0.0, H, 37)
    poly = np.polynomial.Polynomial([3.0, -0.2, 0.01, 1e-4, -2e-6, 1e-8])
    assert np.allclose(oracles.lagrange(nodes, poly(nodes), z), poly(z), rtol=1e-10)


def test_brute_force_dominance_hand_case():
    front = [[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]
    assert oracles.mutually_nondominated(front)
    assert not oracles.mutually_nondominated(front + [[2.0, 3.0]])
    assert oracles.dominates((2.0, 2.0), (2.0, 3.0))
    assert not oracles.dominates((2.0, 2.0), (2.0, 2.0))
    assert not oracles.dominates((1.0, 3.0), (3.0, 1.0))


def test_ordering_violation_hand_case():
    x = np.zeros(20)
    x[8:14] = 100.0
    x[14:20] = [100.0, 110.0, 90.0, 100.0, 120.0, 50.0]
    assert np.isclose(oracles.ordering_violation(x), 0.1 + 0.2)


def test_zdt1_closed_form_and_igd_on_the_front():
    X = np.zeros((5, 30))
    X[:, 0] = np.linspace(0.0, 1.0, 5)
    F = oracles.zdt1(X)
    assert np.allclose(F[:, 1], 1.0 - np.sqrt(F[:, 0]))
    t = np.linspace(0.0, 1.0, 1000)
    assert oracles.zdt1_igd(np.column_stack([t, 1.0 - np.sqrt(t)])) == 0.0
    assert oracles.zdt1_igd(F + 0.1) > oracles.zdt1_igd(F) > 0.0
