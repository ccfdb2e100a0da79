"""Analytic bi-objective benchmark problems and front-quality metrics.

These exist to validate the optimizer independently of dam physics: each
problem has a known Pareto front with a closed-form sampler, so archive
quality can be scored with IGD and 2-D hypervolume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BenchmarkProblem",
    "get_benchmark",
    "BENCHMARK_NAMES",
    "igd",
    "hypervolume2d",
]

BENCHMARK_NAMES = ("SCH", "ZDT1", "ZDT2")


@dataclass(frozen=True)
class BenchmarkProblem:
    """One of BENCHMARK_NAMES on its box [lower, upper] of `dimension`
    variables, with the hypervolume reference corner used for the progress
    log. It has no constraints: every violation is 0."""

    name: str
    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    hv_reference: tuple

    @property
    def bounds(self):
        return self.lower, self.upper

    def evaluate_batch(self, X: np.ndarray):
        """Objectives, shape (n, 2), and violations, all 0, of the designs
        in the rows of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        F = np.empty((len(X), 2))
        if self.name == "SCH":
            x = X[:, 0]
            F[:, 0], F[:, 1] = x**2, (x - 2.0) ** 2
        else:
            f1 = F[:, 0] = X[:, 0]
            # the mean of the other variables, as X[:, 1:].mean(axis=1) sums it
            g = 1.0 + 9.0 * (np.add.reduce(X[:, 1:], axis=1) / (X.shape[1] - 1))
            if self.name == "ZDT1":
                F[:, 1] = g * (1.0 - np.sqrt(f1 / g))
            else:
                F[:, 1] = g * (1.0 - (f1 / g) ** 2)
        return F, np.zeros(len(X))

    def analytic_front(self, n: int = 1000) -> np.ndarray:
        """n uniformly parameterized points on the true Pareto front."""
        t = np.linspace(0.0, 1.0, n)
        if self.name == "SCH":
            x = 2.0 * t
            return np.column_stack([x**2, (x - 2.0) ** 2])
        if self.name == "ZDT1":
            return np.column_stack([t, 1.0 - np.sqrt(t)])
        return np.column_stack([t, 1.0 - t**2])


def get_benchmark(name: str) -> BenchmarkProblem:
    name = name.upper()
    if name == "SCH":
        return BenchmarkProblem(
            name="SCH",
            dimension=1,
            lower=np.array([-3.0]),
            upper=np.array([3.0]),
            hv_reference=(4.5, 4.5),
        )
    if name in ("ZDT1", "ZDT2"):
        return BenchmarkProblem(
            name=name,
            dimension=30,
            lower=np.zeros(30),
            upper=np.ones(30),
            hv_reference=(1.1, 1.1),
        )
    raise ValueError(f"unknown benchmark {name!r}")


def igd(front: np.ndarray, samples: np.ndarray, scale=None) -> float:
    """Mean distance from each analytic sample to its nearest front member.

    scale, when given, divides each objective before measuring distance
    (used by the metrics pipeline to normalize by the analytic front's
    per-objective range so thresholds are comparable across problems).
    """
    front = np.atleast_2d(np.asarray(front, dtype=float))
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(front) == 0:
        raise ValueError("front must be non-empty")
    if scale is None:
        scale = np.ones(front.shape[1])
    scale = np.asarray(scale, dtype=float)
    d = np.linalg.norm(samples[:, None, :] / scale - front[None, :, :] / scale, axis=2)
    return float(d.min(axis=1).mean())


def _nd_filter(F: np.ndarray) -> np.ndarray:
    """The rows no other row dominates, once each, in (f1, f2) order: each
    kept row's f2 lies strictly below every f2 before it in that order."""
    F = F[np.lexsort((F[:, 1], F[:, 0]))]
    f2 = F[:, 1]
    before = np.minimum.accumulate(np.concatenate(([np.inf], f2[:-1])))
    return F[f2 < before]


def _slab_sum(pts: np.ndarray, ref) -> float:
    """Area dominated by the rows of pts inside the corner ref, rows in
    (f1, f2) order with f2 never rising: a slab per row from its f1 to the
    next (a repeated row's is 0 wide) or the corner's, summed strictly left
    to right by cumsum, independent of numpy's pairwise sum."""
    pts = pts[(pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])]
    if len(pts) == 0:
        return 0.0
    right = np.append(pts[1:, 0], ref[0])
    terms = (right - pts[:, 0]) * (ref[1] - pts[:, 1])
    return float(np.cumsum(terms)[-1])


def hypervolume2d(front: np.ndarray, reference, strict: bool = True) -> float:
    """Dominated area between the front and the reference corner.

    With strict=True (the contract behaviour) the reference point must not
    dominate any front member; strict=False silently clips instead, for
    progress logging where archives may momentarily exceed the corner.
    """
    front = np.atleast_2d(np.asarray(front, dtype=float))
    if len(front) == 0:
        raise ValueError("front must be non-empty")
    ref = np.asarray(reference, dtype=float)
    if strict:
        dominated = np.all(ref <= front, axis=1) & np.any(ref < front, axis=1)
        if np.any(dominated):
            raise ValueError("reference point lies inside the front region")
    return _slab_sum(_nd_filter(front), ref)
