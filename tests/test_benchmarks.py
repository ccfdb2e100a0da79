
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from archdam import get_benchmark, hypervolume2d, igd

from _oracles import grid_hypervolume, hypervolume_reference


def test_hypervolume_hand_values():
    assert hypervolume2d(np.array([[0.0, 0.5], [0.5, 0.0]]), (1.0, 1.0)) == pytest.approx(0.75)
    assert hypervolume2d(np.array([[0.0, 0.0]]), (1.0, 1.0)) == pytest.approx(1.0)
    assert hypervolume2d(np.array([[0.5, 0.5]]), (1.0, 1.0)) == pytest.approx(0.25)
    # points at or beyond the corner contribute nothing
    assert hypervolume2d(np.array([[1.0, 1.0]]), (1.0, 1.0)) == 0.0
    assert hypervolume2d(np.array([[2.0, 3.0]]), (1.0, 1.0), strict=False) == 0.0


def test_hypervolume_dominated_members_are_free():
    base = np.array([[0.1, 0.6], [0.4, 0.2]])
    with_dup = np.vstack([base, [0.5, 0.7], [0.1, 0.6]])
    assert hypervolume2d(with_dup, (1.0, 1.0)) == pytest.approx(
        hypervolume2d(base, (1.0, 1.0)))


def test_hypervolume_monotone_under_union():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.random((8, 2))
        b = np.vstack([a, rng.random((4, 2))])
        assert hypervolume2d(b, (1.0, 1.0)) >= hypervolume2d(a, (1.0, 1.0)) - 1e-12


def test_hypervolume_strict_rejects_inner_reference():
    front = np.array([[0.2, 0.2], [2.0, 3.0]])
    with pytest.raises(ValueError):
        hypervolume2d(front, (1.0, 1.0), strict=True)
    # clipping keeps only the point inside the corner
    assert hypervolume2d(front, (1.0, 1.0), strict=False) == pytest.approx(0.64)
    with pytest.raises(ValueError):
        hypervolume2d(np.empty((0, 2)), (1.0, 1.0))


def test_hypervolume_matches_grid_oracle():
    rng = np.random.default_rng(19)
    for _ in range(5):
        front = rng.random((12, 2))
        exact = hypervolume2d(front, (1.0, 1.0))
        approx = grid_hypervolume(front, (1.0, 1.0), resolution=2e-3)
        assert exact == pytest.approx(approx, abs=5e-3)


@st.composite
def _fronts(draw, max_points=60):
    """Objective sets on a coarse grid (ties, duplicates, points on and
    beyond the corners used below), continuous in [0, 1.2]^2, or close to
    the anti-diagonal, where most points are non-dominated."""
    kind = draw(st.sampled_from(["grid", "continuous", "front"]))
    n = draw(st.integers(20 if kind == "front" else 1, max_points))
    if kind == "grid":
        elements = st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2])
    else:
        elements = st.floats(0.0, 1.2)
    F = draw(arrays(float, (n, 2), elements=elements, unique=kind == "front"))
    if kind == "front":
        F[:, 1] = 1.0 - F[:, 0] + 0.01 * F[:, 1]
    return F


# a dense ZDT1-like front, on which numpy's pairwise sum of the slabs
# differs from the left-to-right one in the last bit
_t = np.sort(np.random.default_rng(1).random(40))
_DENSE_FRONT = np.column_stack([_t, 1.0 - np.sqrt(_t)])


_HV_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_HV_SETTINGS
@given(_fronts())
@example(_DENSE_FRONT)
def test_hypervolume_equals_loop_reference(front):
    # bit for bit, so logged hypervolumes do not change
    for ref in ((1.0, 1.0), (1.1, 0.9)):
        assert hypervolume2d(front, ref, strict=False) == hypervolume_reference(front, ref)


@_HV_SETTINGS
@given(_fronts(), _fronts())
def test_hypervolume_property_monotone_under_union(a, b):
    hv_a = hypervolume2d(a, (1.0, 1.0), strict=False)
    assert hypervolume2d(np.vstack([a, b]), (1.0, 1.0), strict=False) >= hv_a * (1.0 - 1e-12)


@_HV_SETTINGS
@given(_fronts(), st.data())
def test_hypervolume_property_dominated_point_adds_nothing(front, data):
    member = front[data.draw(st.integers(0, len(front) - 1))]
    offset = data.draw(arrays(float, 2, elements=st.sampled_from([0.0, 1e-9, 0.1, 0.5])))
    grown = np.vstack([front, member + offset])
    assert hypervolume2d(grown, (1.0, 1.0), strict=False) == hypervolume2d(front, (1.0, 1.0),
                                                                           strict=False)


def test_igd_zero_only_on_covering_front():
    bp = get_benchmark("SCH")
    samples = bp.analytic_front(200)
    assert igd(samples, samples) == 0.0
    shifted = samples + 0.05
    assert igd(shifted, samples) > 0.0
    with pytest.raises(ValueError):
        igd(np.empty((0, 2)), samples)


def test_igd_scaling():
    samples = np.array([[0.0, 0.0], [4.0, 0.0]])
    front = np.array([[0.0, 0.0]])
    assert igd(front, samples) == pytest.approx(2.0)
    assert igd(front, samples, scale=(4.0, 4.0)) == pytest.approx(0.5)


def test_sch_evaluations_and_front():
    bp = get_benchmark("SCH")
    assert len(bp.lower) == 1 and bp.hv_reference == (4.5, 4.5)
    F, viol = bp.evaluate_batch(np.array([[0.0], [2.0], [1.0]]))
    assert np.allclose(F, [[0.0, 4.0], [4.0, 0.0], [1.0, 1.0]])
    assert np.all(viol == 0.0)
    front = bp.analytic_front(101)
    assert front[0] == pytest.approx([0.0, 4.0])
    assert front[-1] == pytest.approx([4.0, 0.0])


def test_zdt_evaluations_and_fronts():
    z1 = get_benchmark("ZDT1")
    z2 = get_benchmark("zdt2")  # case-insensitive lookup
    assert len(z1.lower) == 30 and z1.hv_reference == (1.1, 1.1)
    x = np.zeros((1, 30))
    x[0, 0] = 0.25
    F1, _ = z1.evaluate_batch(x)
    assert F1[0] == pytest.approx([0.25, 0.5])
    x[0, 0] = 0.5
    F2, _ = z2.evaluate_batch(x)
    assert F2[0] == pytest.approx([0.5, 0.75])
    # distance variables inflate g and push points off the analytic front
    x[0, 1:] = 0.5
    F3, _ = z1.evaluate_batch(x)
    assert F3[0, 1] > 0.5
    assert z1.analytic_front(11)[5] == pytest.approx([0.5, 1.0 - np.sqrt(0.5)])
    assert z2.analytic_front(11)[5] == pytest.approx([0.5, 0.75])


def test_unknown_benchmark_raises():
    with pytest.raises(ValueError):
        get_benchmark("DTLZ2")
