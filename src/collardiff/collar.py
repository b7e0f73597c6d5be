"""Closed-form geometry of hyperbolic collars and the standard cusp.

A collar of core length ell is the cylinder (-X, X) x S^1 carrying the
conformal metric rho(s)^2 (ds^2 + dtheta^2) with

    rho(s) = ell / (2*pi*cos(ell*s/(2*pi))),
    X(ell) = (2*pi/ell) * (pi/2 - atan(sinh(ell/2))).

The half-length is evaluated as (2*pi/ell)*atan(1/sinh(ell/2)), which
is the same number without subtracting from pi/2.  Near the ends the
cosine profile is evaluated through the boundary identity
cos(ell*X/(2*pi)) = tanh(ell/2), which keeps the tiny boundary values
fully accurate even when s itself carries rounding at magnitude ~1e5.

The standard cusp is (pi, inf) x S^1 with metric s^-2 (ds^2+dtheta^2),
equivalently the punctured disc of radius exp(-pi) with metric
(|z| log(1/|z|))^-2 |dz|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# re-exported, so that collar.DEFAULT_DELTA0 and collar.CUSP_DISC_RADIUS work
from .defaults import CUSP_DISC_RADIUS, DEFAULT_DELTA0  # noqa: F401
from .errors import DomainError

# Collar core lengths live in (0, 2*arcsinh(1)]; thin-part thresholds
# delta in (0, arcsinh(1)).
ELL_MAX = 2.0 * math.asinh(1.0)
DELTA_MAX = math.asinh(1.0)


@dataclass(frozen=True)
class CollarParams:
    """Core geodesic length of a collar; all geometry derives from it."""

    ell: float

    def __post_init__(self):
        # X ~ pi^2/ell overflows below ell ~ 5.5e-308 (at 5e-324,
        # sinh(ell/2) underflows to 0 first)
        if not (0.0 < self.ell <= ELL_MAX) or math.sinh(0.5 * self.ell) == 0 \
                or not math.isfinite(self.half_length):
            raise DomainError(
                f"collar core length must lie in (0, {ELL_MAX:.12g}] with a "
                f"finite half-length, got {self.ell!r}")

    @cached_property
    def half_length(self) -> float:
        return (2.0 * math.pi / self.ell) * math.atan(1.0 / math.sinh(0.5 * self.ell))

    @property
    def freq(self) -> float:
        """b = ell/(2*pi), the frequency in cos(b*s)."""
        return self.ell / (2.0 * math.pi)

    @cached_property
    def _alpha(self) -> float:
        # pi/2 - b*X, exactly atan(sinh(ell/2)); used by the stable
        # cosine profile near the collar ends.
        return math.atan(math.sinh(0.5 * self.ell))


@dataclass(frozen=True)
class ThinWindow:
    """The delta-thin sub-collar (-x_delta, x_delta) x S^1 (empty if 0),
    its edge ratio r = cos(ell*x_delta/(2*pi)) and hyperbolic area."""

    x_delta: float
    r: float
    area: float

    @property
    def empty(self) -> bool:
        return self.x_delta == 0.0


def cos_profile_vec(c: CollarParams, s):
    """cos(ell*s/(2*pi)) at a point or elementwise on an array, switching
    to the boundary identity near the ends.  A float gives a float, with
    the bits of a one-element array call."""
    s = np.asarray(s, dtype=float)
    pts = np.atleast_1d(s)
    x = c.half_length
    near = np.abs(pts) > 0.9 * x
    out = np.cos(c.freq * pts)
    if np.any(near):
        out[near] = np.sin(c._alpha + c.freq * (x - np.abs(pts[near])))
    return out if s.ndim else float(out[0])


def conformal_factor(c: CollarParams, s: float) -> float:
    """rho(s) = ell/(2*pi*cos(ell*s/(2*pi))) on the open collar."""
    x = c.half_length
    if not abs(s) < x:
        raise DomainError(f"s = {s!r} outside the open collar (-{x:.6g}, {x:.6g})")
    return c.ell / (2.0 * math.pi * cos_profile_vec(c, s))


def thin_boundary(c: CollarParams, delta: float) -> ThinWindow:
    """The delta-thin sub-collar, from r = sinh(ell/2)/sinh(delta).

    Empty when r >= 1; otherwise X_delta = (2*pi/ell) * acos(r), which
    places the injectivity radius exactly at delta, and the area
    2*ell*tan(ell*X_delta/(2*pi)) is written as 2*ell*sqrt(1-r^2)/r.
    """
    _check_delta(delta)
    r = math.sinh(0.5 * c.ell) / math.sinh(delta)
    if r >= 1.0:
        return ThinWindow(0.0, r, 0.0)
    return ThinWindow((2.0 * math.pi / c.ell) * math.acos(r), r,
                      2.0 * c.ell * math.sqrt(1.0 - r * r) / r)


def injectivity_radius(c: CollarParams, s: float) -> float:
    """Injectivity radius at (s, theta): asinh(sinh(ell/2)/cos(ell*s/2pi))."""
    x = c.half_length
    if abs(s) > x:
        raise DomainError(f"s = {s!r} outside the collar [-{x:.6g}, {x:.6g}]")
    return math.asinh(math.sinh(0.5 * c.ell) / cos_profile_vec(c, s))


def thin_area_bound(c: CollarParams, delta: float) -> float:
    """The elementary bound 2*ell*sinh(delta)/sinh(ell/2) >= the area."""
    _check_delta(delta)
    return 2.0 * c.ell * math.sinh(delta) / math.sinh(0.5 * c.ell)


def disc_metric_density(r):
    """Cusp metric density 1/(r*log(1/r)) in the punctured-disc model,
    at a radius or an array of radii."""
    radii = np.asarray(r)
    if not np.all((radii > 0.0) & (radii < 1.0)):
        raise DomainError(f"disc radius must lie in (0, 1), got {r!r}")
    return 1.0 / (r * (-np.log(r)))


def validate_delta0(delta0: float) -> float:
    """Check the working constraint X(ell) - X_delta0(ell) >= 1 for every
    core length and return the gap's infimum; a DomainError otherwise,
    since the decay estimates downstream rest on it.

    While the thin part is nonempty (r = sinh(ell/2)/sinh(delta0) < 1) the
    gap (2*pi/ell) * (asin(r) - atan(sinh(ell/2))) rises with ell from its
    ell -> 0 limit pi * (1/sinh(delta0) - 1); beyond, it is X(ell) >=
    X(ELL_MAX) ~ 2.80.  So delta0 must be at most asinh(pi/(pi+1)) ~ 0.69997.
    """
    _check_delta(delta0)
    gap = min(math.pi * (1.0 / math.sinh(delta0) - 1.0),
              CollarParams(ELL_MAX).half_length)
    if gap < 1.0:
        raise DomainError(
            f"delta0 = {delta0!r} violates the thick-gap constraint: "
            f"X - X_delta0 -> {gap:.6g} < 1 as ell -> 0")
    return gap


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < DELTA_MAX:
        raise DomainError(
            f"thin-part threshold must lie in (0, {DELTA_MAX:.12g}), "
            f"got {delta!r}")
