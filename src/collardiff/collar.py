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

from .errors import DomainError

# Collar core lengths live in (0, 2*arcsinh(1)]; thin-part thresholds
# delta in (0, arcsinh(1)).
ELL_MAX = 2.0 * math.asinh(1.0)
DELTA_MAX = math.asinh(1.0)

# Default thick/thin split used by the decay experiments.
DEFAULT_DELTA0 = 0.4

# Evaluation points are clamped to |s| <= X * _CLAMP inside the open collar.
_CLAMP = 1.0 - 1e-12

CUSP_DISC_RADIUS = math.exp(-math.pi)


@dataclass(frozen=True)
class CollarParams:
    """Core geodesic length of a collar; all geometry derives from it."""

    ell: float

    def __post_init__(self):
        if not (0.0 < self.ell <= ELL_MAX) or not math.isfinite(self.ell):
            raise DomainError(
                f"collar core length must lie in (0, {ELL_MAX:.12g}], "
                f"got {self.ell!r}")

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
    """The delta-thin sub-collar (-x_delta, x_delta) x S^1; empty if 0."""

    delta: float
    x_delta: float

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
    s = math.copysign(min(abs(s), x * _CLAMP), s)
    return c.ell / (2.0 * math.pi * cos_profile_vec(c, s))


def thin_boundary(c: CollarParams, delta: float) -> ThinWindow:
    """Coordinate half-width X_delta of the delta-thin sub-collar.

    Zero (empty thin part) when sinh(ell/2) >= sinh(delta); otherwise
    X_delta = (2*pi/ell) * acos(sinh(ell/2)/sinh(delta)), which places
    the injectivity radius exactly at delta.
    """
    _check_delta(delta)
    r = math.sinh(0.5 * c.ell) / math.sinh(delta)
    if r >= 1.0:
        return ThinWindow(delta, 0.0)
    return ThinWindow(delta, (2.0 * math.pi / c.ell) * math.acos(r))


def injectivity_radius(c: CollarParams, s: float) -> float:
    """Injectivity radius at (s, theta): asinh(sinh(ell/2)/cos(ell*s/2pi))."""
    x = c.half_length
    if abs(s) > x:
        raise DomainError(f"s = {s!r} outside the collar [-{x:.6g}, {x:.6g}]")
    return math.asinh(math.sinh(0.5 * c.ell) / cos_profile_vec(c, s))


def thin_area(c: CollarParams, delta: float) -> float:
    """Hyperbolic area of the delta-thin sub-collar.

    Closed form 2*ell*tan(ell*X_delta/(2*pi)), written as
    2*ell*sqrt(1-r^2)/r with r = sinh(ell/2)/sinh(delta); 0 when empty.
    """
    _check_delta(delta)
    r = math.sinh(0.5 * c.ell) / math.sinh(delta)
    if r >= 1.0:
        return 0.0
    return 2.0 * c.ell * math.sqrt(1.0 - r * r) / r


def thin_area_bound(c: CollarParams, delta: float) -> float:
    """The elementary bound 2*ell*sinh(delta)/sinh(ell/2) >= thin_area."""
    _check_delta(delta)
    return 2.0 * c.ell * math.sinh(delta) / math.sinh(0.5 * c.ell)


def disc_metric_density(r):
    """Cusp metric density 1/(r*log(1/r)) in the punctured-disc model,
    at a radius or an array of radii."""
    radii = np.asarray(r)
    if not np.all((radii > 0.0) & (radii < 1.0)):
        raise DomainError(f"disc radius must lie in (0, 1), got {r!r}")
    return 1.0 / (r * (-np.log(r)))


def validate_delta0(delta0: float, ell_values=None) -> float:
    """Check the working constraint X(ell) - X_delta0(ell) >= 1.

    Probes a built-in logarithmic grid over (0, min(2*delta0, ELL_MAX)]
    plus any caller-supplied core lengths; returns the smallest margin
    found.  Raises DomainError if the constraint fails anywhere, which
    would invalidate the decay estimates downstream.
    """
    _check_delta(delta0)
    top = min(2.0 * delta0, ELL_MAX)
    probe = list(np.geomspace(1e-8, top * (1.0 - 1e-9), 200))
    if ell_values is not None:
        probe.extend(e for e in ell_values if 0.0 < e <= ELL_MAX)
    worst = math.inf
    for ell in probe:
        c = CollarParams(ell)
        gap = c.half_length - thin_boundary(c, delta0).x_delta
        if gap < worst:
            worst = gap
    if worst < 1.0:
        raise DomainError(
            f"delta0 = {delta0!r} violates the thick-gap constraint: "
            f"X - X_delta0 = {worst:.6g} < 1 somewhere on the working range")
    return worst


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < DELTA_MAX) or not math.isfinite(delta):
        raise DomainError(
            f"thin-part threshold must lie in (0, {DELTA_MAX:.12g}), "
            f"got {delta!r}")
