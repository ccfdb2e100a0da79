"""Correctness oracles written independently of archdam.

Nothing here imports the package: volume, dominance, ZDT1 and IGD are
computed from their definitions so that a check against them can catch a
fault the program shares with its own helpers.
"""

from __future__ import annotations

import numpy as np

N_LEVELS = 6


def lagrange(nodes, values, z):
    """Product-form Lagrange interpolant through (nodes, values) at z."""
    nodes = np.asarray(nodes, dtype=float)
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape)
    for i, zi in enumerate(nodes):
        basis = np.ones(z.shape)
        for m, zm in enumerate(nodes):
            if m != i:
                basis *= (z - zm) / (zi - zm)
        out += values[i] * basis
    return out


def _sections(x, h, w_crest, w_base, z):
    """Crown thickness, face radii and canyon half-width at depths z."""
    x = np.asarray(x, dtype=float)
    nodes = np.linspace(0.0, h, N_LEVELS)
    tc = lagrange(nodes, x[2:8], z)
    ru = lagrange(nodes, x[8:14], z)
    rd = lagrange(nodes, x[14:20], z)
    w = w_crest + (w_base - w_crest) * z / h
    return tc, ru, rd, w


def faces_apart(x, h, w_crest, w_base, n=2001):
    """True when both radii and the thickness between the faces stay
    positive at every sampled depth.

    Along an arch the thickness tc + x^2/2 (1/rd - 1/ru) is extreme at the
    crown or at the abutments, so the two ends are enough across the valley.
    """
    z = np.linspace(0.0, h, n)
    tc, ru, rd, w = _sections(x, h, w_crest, w_base, z)
    if ru.min() <= 0.0 or rd.min() <= 0.0:
        return False
    abutment = tc + 0.5 * w**2 * (1.0 / rd - 1.0 / ru)
    return bool(tc.min() > 0.0 and abutment.min() > 0.0)


def dam_volume(x, h, w_crest, w_base, n=4000):
    """Concrete volume of a 20-variable design whose faces never cross.

    The thickness between the parabolic faces is integrated across the
    valley in closed form, 2 w tc + w^3/3 (1/rd - 1/ru), and over depth by
    composite Simpson on n intervals.
    """
    if n % 2:
        raise ValueError("Simpson's rule needs an even interval count")
    z = np.linspace(0.0, h, n + 1)
    tc, ru, rd, w = _sections(x, h, w_crest, w_base, z)
    area = 2.0 * w * tc + w**3 / 3.0 * (1.0 / rd - 1.0 / ru)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((h / n) / 3.0 * (weights * area).sum())


def ordering_violation(x):
    """Lower bound on the violation of a design: sum of max(rd_i/ru_i - 1, 0)."""
    x = np.asarray(x, dtype=float)
    return float(np.maximum(x[14:20] / x[8:14] - 1.0, 0.0).sum())


def dominates(a, b):
    """True when a is no worse than b everywhere and better somewhere."""
    le = all(ai <= bi for ai, bi in zip(a, b))
    lt = any(ai < bi for ai, bi in zip(a, b))
    return le and lt


def mutually_nondominated(F):
    """Brute force over every ordered pair of rows."""
    rows = [tuple(float(v) for v in r) for r in np.atleast_2d(F)]
    return not any(
        dominates(rows[i], rows[j])
        for i in range(len(rows))
        for j in range(len(rows))
        if i != j
    )


def zdt1(X):
    """Closed-form ZDT1 objectives for rows of X in [0, 1]^30."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    f1 = X[:, 0]
    g = 1.0 + 9.0 * X[:, 1:].sum(axis=1) / (X.shape[1] - 1)
    return np.column_stack([f1, g * (1.0 - np.sqrt(f1 / g))])


def zdt1_igd(F, n=1000):
    """IGD of F against the ZDT1 front f2 = 1 - sqrt(f1), each objective
    divided by its range on the front."""
    t = np.linspace(0.0, 1.0, n)
    front = np.column_stack([t, 1.0 - np.sqrt(t)])
    scale = front.max(axis=0) - front.min(axis=0)
    d = np.linalg.norm(front[:, None, :] / scale - np.asarray(F)[None, :, :] / scale, axis=2)
    return float(d.min(axis=1).mean())
