"""Multi-criteria tournament ranking of a finite Pareto set.

Each alternative plays round-robin tournaments per objective; the
per-objective win ratios are combined into one global score R through
a weighted geometric mean reflecting decision-maker priorities.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

__all__ = [
    "Scenario",
    "RankingResult",
    "UndefinedSetError",
    "rank_R",
    "acceptable_mask",
]


class UndefinedSetError(ValueError):
    """Tournament ratios are undefined on sets with fewer than two members."""


class Scenario(namedtuple("Scenario", "name weights")):
    """Named priority weights, one per objective, positive and summing to
    1, held as a tuple of floats. The constructor checks and converts the
    weights; _make and _replace do not, so build a new scenario with the
    constructor."""

    __slots__ = ()

    def __new__(cls, name, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not (w > 0.0).all():
            raise ValueError("weights must be strictly positive")
        weights = tuple(float(x) for x in w)
        total = sum(weights)  # inf past the float range, with no numpy warning
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        return super().__new__(cls, name, weights)


class RankingResult(NamedTuple):
    """Global scores plus the best-first ordering they induce."""

    R: np.ndarray
    order: np.ndarray

    @property
    def best(self) -> int:
        return int(self.order[0])


def rank_R(F: np.ndarray, scenario: Scenario) -> RankingResult:
    """Score every alternative and sort best-first.

    R(a) = (prod_i T_i(a)^w_i)^(1/N). Any zero win ratio zeroes R, a
    valid score. Callers filter unacceptable alternatives beforehand;
    this function ranks exactly what it is given. Ties in R break
    toward lower last objective, then lower first (for the dam pair:
    lower fit2, then lower fit1).
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    n, m = F.shape
    w = np.asarray(scenario.weights, dtype=float)
    if w.size != m:
        raise ValueError(f"scenario has {w.size} weights for {m} objectives")
    if n < 2:
        raise UndefinedSetError("ranking needs at least 2 alternatives")

    # wins[a, i] = count of b with F[b, i] > F[a, i]; strict, so duplicated
    # rows share identical scores.
    wins = (F[None, :, :] > F[:, None, :]).sum(axis=1)
    T = wins / (n - 1)
    R = np.prod(T**w, axis=1) ** (1.0 / m)

    keys = [F[:, 0]]
    for j in range(m - 1, 0, -1):
        keys.append(F[:, j])
    keys.append(-R)
    order = np.lexsort(keys)
    return RankingResult(R=R, order=order)


def acceptable_mask(F: np.ndarray) -> np.ndarray:
    """Mask of alternatives with non-positive failure margin (fit2 <= 0).

    Decision making discards designs whose worst stress state exceeds
    the failure surface; only the remainder is ranked.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    return F[:, 1] <= 0.0
