"""Static stress surrogate for the dam body.

This module is deliberately simple plumbing, not structural analysis: it
produces principal stress states with the right shape, signs, and scaling
so the failure-criterion pipeline can be exercised end to end. A real FE
backend can replace it by satisfying the same evaluator contract: the
crown thickness and upstream radius at the six control levels in, sorted
principal states per (row, load case) out.

Per row and load case the surrogate composes three components:
  * arch hoop stress from thin-ring theory, -p(z) * ru(z) / tc(z), with
    reservoir pressure p(z) and, for the pseudo-seismic case, the
    Westergaard pseudo-static pressure (7/8) k_h rho_w g sqrt(H_w z_w);
  * vertical cantilever stress, self-weight compression plus a linear
    bending term from a configurable share of the hydrostatic overturning
    moment (unit-width cantilever, section modulus tc^2/6), tensile on
    the upstream face and compressive downstream;
  * zero third principal component (free faces).

None of these terms depends on the arc position x, so a state is fixed
by its depth and face: StressSurrogate computes one state per (face,
depth) row and load case. The rows' depths are the six control levels,
where tc and ru are the design's node values, so the two faces give 12
rows. The terms that depend on no design are built with it.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .geometry import CanyonProfile, level_depths
from .schema import check

__all__ = ["LoadCase", "StressSurrogate", "GRAVITY", "MOMENT_SHARE"]

GRAVITY = 9.81  # m/s^2
# share of the hydrostatic overturning moment carried by cantilever bending
MOMENT_SHARE = 0.02


class LoadCase(namedtuple("LoadCase",
                          "kind water_level seismic_coefficient water_density concrete_density")):
    """One static loading scenario.

    water_level is measured in meters below the crest (0 = full
    reservoir, h = empty). The water-driven terms act for the
    hydrostatic and pseudo_seismic kinds; the Westergaard term only for
    pseudo_seismic. The constructor checks the values against an item of
    the schema's loads section; _make and _replace do not, so build a new
    load case with the constructor.
    """

    __slots__ = ()

    def __new__(cls, kind="hydrostatic", water_level=0.0, seismic_coefficient=0.1,
                water_density=1000.0, concrete_density=2400.0):
        return check(super().__new__(cls, kind, water_level, seismic_coefficient,
                                     water_density, concrete_density), "loads")


class StressSurrogate:
    """The surrogate on the (face, depth) rows over both faces of a dam in
    the canyon, at the six control levels level_depths(canyon.h): the
    upstream rows, then the downstream ones. `z` and `face` give each
    row's depth and face ("up" or "down").

    The load-case terms that depend on no design are built per row: -p
    (reservoir pressure plus the Westergaard term), the self-weight, and
    the bending numerator moment_share * rho_w * g * z_w^3, signed by
    face. They are kept flattened to (n_rows * n_cases,), so that the
    states are built on one contiguous axis rather than with an inner
    loop over the load cases.
    """

    def __init__(self, canyon: CanyonProfile, load_cases, moment_share: float):
        depths = level_depths(canyon.h)
        self.z = z = np.concatenate([depths, depths])
        self.face = np.repeat(["up", "down"], len(depths))
        up = self.face == "up"

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
        self._take = np.repeat(np.tile(np.arange(len(depths)), 2), len(load_cases))
        self._neg_p, self._weight, self._bend = (
            np.stack(t, axis=-1).ravel() for t in (neg_p, weight, bend))

    def __call__(self, tc, ru):
        """Sorted principal states, shape (..., n_rows, n_cases, 3), from
        the crown thickness and upstream radius at the levels, the node
        values tc1-tc6 and ru1-ru6, shape (..., 6), for one design or a
        batch."""
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
