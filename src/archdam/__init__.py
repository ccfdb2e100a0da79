"""Parabolic double-curvature arch dam shape optimization.

Two conflicting objectives, concrete volume and worst Willam-Warnke
failure margin, are minimized with a multi-objective charged system
search; the resulting Pareto set is ranked by a multi-criteria
tournament decision maker.
"""

# the one version string: the CLI and pyproject.toml read it from here
__version__ = "0.1.0"
# the benchmark names: the CLI's --problem choices, without loading archdam.benchmarks
BENCHMARK_NAMES = ("SCH", "ZDT1", "ZDT2")

from .config import (ConfigError, MocssConfig, default_config, load_config, make_mocss_config,
                     make_problem)
from .geometry import CanyonProfile, LOWER_BOUNDS, UPPER_BOUNDS, VARIABLE_NAMES
from .objectives import DamProblem, Evaluation
from .stress_model import LoadCase
from .willam_warnke import StrengthParams, WWCoefficients, criterion_values, solve_coefficients

__all__ = [
    "__version__",
    "BenchmarkProblem", "get_benchmark", "hypervolume2d", "igd",
    "ConfigError", "default_config", "load_config", "make_mocss_config", "make_problem",
    "CanyonProfile", "LOWER_BOUNDS", "UPPER_BOUNDS", "VARIABLE_NAMES",
    "MocssConfig", "MocssResult", "pareto_rank", "run_mocss",
    "RankingResult", "UndefinedSetError", "Scenario", "acceptable_mask", "rank_R",
    "DamProblem", "Evaluation",
    "LoadCase",
    "StrengthParams", "WWCoefficients", "criterion_values", "solve_coefficients",
]

# The optimizer, the decision maker and the benchmark problems are not part
# of building or evaluating a dam, so each loads on first use of one of its
# names or of the submodule itself (PEP 562), not with the package.
_LAZY = {
    **dict.fromkeys(["MocssResult", "pareto_rank", "run_mocss"], "mocss"),
    **dict.fromkeys(["RankingResult", "UndefinedSetError", "Scenario", "acceptable_mask", "rank_R"],
                    "mtdm"),
    **dict.fromkeys(["BenchmarkProblem", "get_benchmark", "hypervolume2d", "igd"], "benchmarks"),
}


def __getattr__(name):
    module = _LAZY.get(name, name)
    if module not in ("mocss", "mtdm", "benchmarks"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
