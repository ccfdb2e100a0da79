"""Static stress surrogate for the dam body.

This module is deliberately simple plumbing, not structural analysis: it
produces principal stress states with the right shape, signs, and scaling
so the failure-criterion pipeline can be exercised end to end. A real FE
backend can replace it by satisfying the same evaluator contract
(geometry in, StressField out).

Per sample point the surrogate composes three components:
  * arch hoop stress from thin-ring theory, -p(z) * ru(z) / tc(z), with
    reservoir pressure p(z) and, for the pseudo-seismic case, the
    Westergaard pseudo-static pressure (7/8) k_h rho_w g sqrt(H_w z_w);
  * vertical cantilever stress, self-weight compression plus a linear
    bending term from a configurable share of the hydrostatic overturning
    moment (unit-width cantilever, section modulus tc^2/6), tensile on
    the upstream face and compressive downstream;
  * zero third principal component (free faces).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CanyonProfile, DamGeometry, DegenerateGeometryError

__all__ = ["LoadCase", "StressField", "sample_grid", "surrogate_states",
           "evaluate_stresses", "GRAVITY"]

GRAVITY = 9.81  # m/s^2

_KINDS = ("gravity", "hydrostatic", "pseudo_seismic")


@dataclass(frozen=True)
class LoadCase:
    """One static loading scenario.

    water_level is measured in meters below the crest (0 = full
    reservoir, h = empty). The water-driven terms act for the
    hydrostatic and pseudo_seismic kinds; the Westergaard term only for
    pseudo_seismic.
    """

    kind: str = "hydrostatic"
    water_level: float = 0.0
    seismic_coefficient: float = 0.1
    water_density: float = 1000.0
    concrete_density: float = 2400.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown load case kind {self.kind!r}")
        if self.water_density <= 0 or self.concrete_density <= 0:
            raise ValueError("densities must be positive")
        if self.seismic_coefficient < 0:
            raise ValueError("seismic coefficient must be non-negative")


@dataclass(frozen=True)
class StressField:
    """Principal stress states per (sample point, load case), MPa."""

    x: np.ndarray
    z: np.ndarray
    face: np.ndarray  # "up" / "down" per point
    cases: tuple
    states: np.ndarray  # (n_points, n_cases, 3), sorted descending


def sample_grid(geometry: DamGeometry, canyon: CanyonProfile, n_depths: int = 6, n_arc: int = 9):
    """Deterministic sample points: (x, z, face) over both faces.

    Only geometry.levels is read, so the points depend on no design.
    n_arc must be odd so the crown x = 0 is sampled; the outermost arc
    stations sit on the abutments at +-halfWidth(z).
    """
    if n_depths < 6:
        raise ValueError("need at least 6 depth stations")
    if n_arc < 9 or n_arc % 2 == 0:
        raise ValueError("need at least 9 arc stations, odd count")
    zs = np.linspace(0.0, geometry.levels.h, n_depths)
    frac = np.linspace(-1.0, 1.0, n_arc)
    x = (canyon.half_width(zs)[:, None] * frac[None, :]).ravel()
    z = np.repeat(zs, n_arc)
    xx = np.concatenate([x, x])
    zz = np.concatenate([z, z])
    face = np.array(["up"] * len(x) + ["down"] * len(x))
    return xx, zz, face


def surrogate_states(tc, ru, grid, h: float, load_cases, moment_share: float = 0.02):
    """Sorted principal states at the grid points, for one design or a batch.

    tc and ru are the crown thickness and upstream radius at the grid
    points, shape (..., n_points); the result has shape
    (..., n_points, n_cases, 3).
    """
    _, z, face = grid
    up = face == "up"
    states = np.empty(np.shape(tc) + (len(load_cases), 3))
    for k, lc in enumerate(load_cases):
        rho_w_g = lc.water_density * GRAVITY
        water = lc.kind != "gravity"
        z_w = np.maximum(0.0, z - lc.water_level) if water else np.zeros_like(z)

        p = rho_w_g * z_w
        if lc.kind == "pseudo_seismic":
            h_w = max(0.0, h - lc.water_level)
            p = p + 0.875 * lc.seismic_coefficient * rho_w_g * np.sqrt(h_w * z_w)
        hoop = -p * ru / tc / 1e6

        weight = -lc.concrete_density * GRAVITY * z / 1e6
        bend = moment_share * rho_w_g * z_w**3 / tc**2 / 1e6
        vertical = weight + np.where(up, bend, -bend)

        comp = np.stack([hoop, vertical, np.zeros_like(hoop)], axis=-1)
        states[..., k, :] = np.sort(comp, axis=-1)[..., ::-1]
    return states


def evaluate_stresses(
    geometry: DamGeometry,
    canyon: CanyonProfile,
    load_cases,
    grid=None,
    moment_share: float = 0.02,
) -> StressField:
    """Surrogate principal stresses at every (grid point, load case)."""
    if grid is None:
        grid = sample_grid(geometry, canyon)
    x, z, face = grid
    tc = geometry.tc(z)
    if np.min(tc) <= 0.0:
        raise DegenerateGeometryError("non-positive thickness at a stress sample")
    ru = geometry.ru(z)
    if np.min(ru) <= 0.0:
        raise DegenerateGeometryError("non-positive radius at a stress sample")
    states = surrogate_states(tc, ru, grid, geometry.levels.h, load_cases, moment_share)
    return StressField(x=x, z=z, face=face, cases=tuple(load_cases), states=states)
