import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from archdam import DamProblem, StrengthParams, solve_coefficients

# reference optimized design used as the regression anchor
TABLE5 = np.array([
    0.201, 0.516,
    4.852, 8.974, 11.972, 16.298, 15.883, 16.891,
    110.637, 93.582, 80.408, 67.690, 55.084, 41.713,
    109.716, 92.719, 79.562, 66.341, 54.418, 39.995,
])


def grid_states(problem, x):
    """Sorted states (n_rows, n_cases, 3) of one design of 20 values on
    the (face, depth) rows of the problem's stress surrogate, as
    `archdam stress-field` takes them."""
    return problem.stress_surrogate(x[2:8], x[8:14])


@pytest.fixture(scope="session")
def table5_design():
    return TABLE5


@pytest.fixture(scope="session")
def default_strength():
    return StrengthParams()


@pytest.fixture(scope="session")
def default_coeffs(default_strength):
    return solve_coefficients(default_strength)


@pytest.fixture(scope="session")
def dam_problem():
    return DamProblem()
