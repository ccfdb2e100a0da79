"""Static stress surrogate for the dam body.

This module is deliberately simple plumbing, not structural analysis: it
produces principal stress states with the right shape, signs, and scaling
so the failure-criterion pipeline can be exercised end to end. A real FE
backend can replace it by satisfying the same evaluator contract: the
crown thickness and upstream radius at the row depths in, sorted
principal states per (row, load case) out.

Per sample point the surrogate composes three components:
  * arch hoop stress from thin-ring theory, -p(z) * ru(z) / tc(z), with
    reservoir pressure p(z) and, for the pseudo-seismic case, the
    Westergaard pseudo-static pressure (7/8) k_h rho_w g sqrt(H_w z_w);
  * vertical cantilever stress, self-weight compression plus a linear
    bending term from a configurable share of the hydrostatic overturning
    moment (unit-width cantilever, section modulus tc^2/6), tensile on
    the upstream face and compressive downstream;
  * zero third principal component (free faces).

None of these terms depends on the arc position x, so a sample point's
state is fixed by its depth and face. StressSurrogate therefore works on
the (face, depth) rows of its grid, each standing for the n_arc points of
one arc: the default grid of 6 depths x 9 arc stations x 2 faces holds 12
rows. The terms that depend on no design are built with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CanyonProfile

__all__ = ["LoadCase", "StressSurrogate", "GRAVITY", "GRID_DEPTHS", "ARC_STATIONS",
           "MOMENT_SHARE"]

GRAVITY = 9.81  # m/s^2
# the default sample grid: depth stations crest to base, arc stations
# abutment to abutment
GRID_DEPTHS = 6
ARC_STATIONS = 9
# share of the hydrostatic overturning moment carried by cantilever bending
MOMENT_SHARE = 0.02

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


class StressSurrogate:
    """The surrogate on the (face, depth) rows of a sample grid over both
    faces of a dam in the canyon: n_depths evenly spaced from the crest to
    the canyon's height h (`depths`), and an arc of n_arc stations at each
    depth (`grid()`). The rows are the upstream ones at `depths`, then the
    downstream ones.

    The load-case terms that depend on no design are built per row: -p
    (reservoir pressure plus the Westergaard term), the self-weight, and
    the bending numerator moment_share * rho_w * g * z_w^3, signed by
    face. They are kept flattened to (n_rows * n_cases,), so that the
    states are built on one contiguous axis rather than with an inner
    loop over the load cases.
    """

    def __init__(self, canyon: CanyonProfile, n_depths: int, n_arc: int, load_cases,
                 moment_share: float):
        if n_depths < 6:
            raise ValueError("need at least 6 depth stations")
        if n_arc < 9 or n_arc % 2 == 0:
            raise ValueError("need at least 9 arc stations, odd count")
        self._canyon = canyon
        self.n_arc = n_arc
        self.depths = np.linspace(0.0, canyon.h, n_depths)
        z = np.concatenate([self.depths, self.depths])
        up = np.arange(len(z)) < n_depths

        neg_p, weight, bend = [], [], []
        for lc in load_cases:
            rho_w_g = lc.water_density * GRAVITY
            water = lc.kind != "gravity"
            z_w = np.maximum(0.0, z - lc.water_level) if water else np.zeros_like(z)
            p = rho_w_g * z_w
            if lc.kind == "pseudo_seismic":
                h_w = max(0.0, canyon.h - lc.water_level)
                p = p + 0.875 * lc.seismic_coefficient * rho_w_g * np.sqrt(h_w * z_w)
            neg_p.append(-p)
            weight.append(-lc.concrete_density * GRAVITY * z / 1e6)
            num = moment_share * rho_w_g * z_w**3
            # tensile upstream, compressive downstream
            bend.append(np.where(up, num, -num))
        self._state_shape = (len(z), len(load_cases), 3)
        self._take = np.repeat(np.tile(np.arange(n_depths), 2), len(load_cases))
        self._neg_p, self._weight, self._bend = (
            np.stack(t, axis=-1).ravel() for t in (neg_p, weight, bend))

    def grid(self):
        """The sample points (x, z, face) in row order, n_arc consecutive
        points per row. An arc runs from abutment to abutment at
        +-half_width(z); n_arc is odd, so its middle point is the crown
        x = 0."""
        frac = np.linspace(-1.0, 1.0, self.n_arc)
        x = (self._canyon.half_width(self.depths)[:, None] * frac[None, :]).ravel()
        z = np.repeat(self.depths, self.n_arc)
        return np.concatenate([x, x]), np.concatenate([z, z]), np.repeat(["up", "down"], len(x))

    def __call__(self, tc, ru):
        """Sorted principal states, shape (..., n_rows, n_cases, 3), from
        the crown thickness and upstream radius at `depths`, shape
        (..., n_depths), for one design or a batch."""
        tc = tc.take(self._take, axis=-1)
        ru = ru.take(self._take, axis=-1)
        hoop = self._neg_p * ru / tc / 1e6
        vertical = self._weight + self._bend / tc**2 / 1e6
        return _sorted_states(hoop, vertical).reshape(tc.shape[:-1] + self._state_shape)


def _sorted_states(hoop, vertical):
    """The components (hoop, vertical, 0) sorted descending, with
    hoop <= 0: the same values and signed zeros as
    np.sort(components)[..., ::-1], whose ties put the later component
    first."""
    pos = vertical > 0.0
    ge = vertical >= hoop
    states = np.empty(np.shape(hoop) + (3,))
    states[..., 0] = np.where(pos, vertical, 0.0)
    states[..., 1] = np.where(pos, 0.0, np.where(ge, vertical, hoop))
    states[..., 2] = np.where(ge, hoop, vertical)
    return states
