"""Quadratic-differential germs at a puncture, in the disc model.

A germ lives on the punctured disc 0 < |z| <= R (default R = e^{-pi})
as Phi = phi(z) dz^2 with phi a finite Laurent window.  The cusp metric
has conformal density 1/(|z| |log|z||), so the metric size of Phi is

    |Phi|(z) = 2 |phi(z)| |z|^2 (log|z|)^2,

while the L^1 mass 2*integral |phi| dx dy is metric-independent.  The
classification result says three conditions coincide: finite L^1 mass,
bounded metric density, and pole order at most one.  ``classify``
computes all three by genuinely separate routes so their agreement is
a check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collar import CUSP_DISC_RADIUS, disc_metric_density
from .errors import (DomainError, ValidationError, mode_table,
                     modes_from_json, modes_to_json, read_json)
from .numerics import adaptive_quad

_K_MIN = -8     # lowest germ mode; with _RADIUS_MIN, r^k stays finite

# theta rules of the L^1 routes and the density sup, and of classify's two
# detectors, whose ladder of annuli ends at eps_j = R / 4^j, j = 1..17
_N_THETA, _N_THETA_DETECT = 256, 128
_STEPS, _SHRINK = 17, 4.0
# smallest radius: r^{_K_MIN} stays below 2^1000 down to the last rung
# R / 4^17 when R / 4^17 >= 2^(1000 / _K_MIN) = 2^-125, so R >= 2^-91
_RADIUS_MIN = _SHRINK ** _STEPS * 2.0 ** (1000 / _K_MIN)
# break points of the polar L^1 quadratures, as fractions of the radius
_L1_BREAKS = (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5)


@dataclass(frozen=True, eq=False)
class PunctureGerm:
    """Laurent window sum c_k z^k on the punctured disc of ``radius``.

    Exact zero coefficients are dropped; everything else is kept verbatim
    (a stored 1e-30 at k = -2 really is a double pole).
    """

    coeffs: dict[int, complex]
    radius: float = CUSP_DISC_RADIUS

    def __post_init__(self):
        if not (_RADIUS_MIN <= self.radius < 1.0):
            # log|z| must be negative on the whole disc
            raise DomainError(
                f"radius must lie in [2^-91, 1), got {self.radius}")
        clean = mode_table(self.coeffs)
        if min(clean, default=0) < _K_MIN:
            raise ValidationError(
                f"mode {min(clean)} below the window floor {_K_MIN}")
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def modes(self):
        return sorted(self.coeffs)

    def phi(self, z: complex) -> complex:
        if z == 0:
            raise DomainError("germ is undefined at the puncture")
        return sum(c * z ** k for k, c in self.coeffs.items())


def _abs_phi_at(g: PunctureGerm, r, n_theta: int) -> np.ndarray:
    """|phi| on circles: rows = radii, columns = a uniform theta grid."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    ks = np.array(g.modes())
    cs = np.array([g.coeffs[k] for k in ks])
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    rad = np.power.outer(r, ks)                      # (m, K)
    ang = np.exp(1j * np.outer(ks, theta))           # (K, n)
    return np.abs((rad * cs) @ ang)


def _l1_integrand(g: PunctureGerm, n_theta: int):
    """The polar integrand 4 pi r mean_theta |phi| of the L^1 mass."""
    def integrand(r: np.ndarray) -> np.ndarray:
        return 4.0 * math.pi * r * _abs_phi_at(g, r, n_theta).mean(axis=1)
    return integrand


def pole_order(g: PunctureGerm) -> int:
    """-min{k : c_k != 0} when negative modes exist, else 0."""
    lo = min(g.coeffs, default=0)
    return -lo if lo < 0 else 0


# --- L^1 mass -----------------------------------------------------------------

def l1_norm(g: PunctureGerm) -> float:
    """2 * integral of |phi| over the punctured disc; +inf for pole >= 2.

    Single modes use the closed form 4 pi |c| R^{k+2} / (k+2); anything
    else goes through polar quadrature.
    """
    if pole_order(g) >= 2:
        return math.inf
    if len(g.coeffs) == 1:
        (k, c), = g.coeffs.items()
        return 4.0 * math.pi * abs(c) * g.radius ** (k + 2) / (k + 2)
    return l1_norm_quadrature(g)


def l1_norm_quadrature(g: PunctureGerm) -> float:
    """Polar quadrature of 2|phi| dx dy; the route that never sees the
    closed form.  Diverges (so refuses to run) for pole order >= 2;
    truncated masses come from ``truncation_profile``."""
    if pole_order(g) >= 2:
        raise DomainError("integral diverges for pole order >= 2")
    R = g.radius
    return adaptive_quad(_l1_integrand(g, _N_THETA), 0.0, R,
                         points=[R * f for f in _L1_BREAKS])


def l1_norm_hyperbolic(g: PunctureGerm) -> float:
    """L^1 mass via the cusp metric: integral of |Phi| d(mu_hyp).

    Computes the metric density and the area element separately and lets
    the conformal factors cancel numerically -- a cross-check that the
    mass really is metric-independent.
    """
    if pole_order(g) >= 2:
        return math.inf

    def integrand(r: np.ndarray) -> np.ndarray:
        dens = 2.0 * _abs_phi_at(g, r, _N_THETA).mean(axis=1) \
            * r * r * np.log(r) ** 2
        return 2.0 * math.pi * dens * disc_metric_density(r) ** 2 * r

    R = g.radius
    return adaptive_quad(integrand, 0.0, R, points=[R * f for f in _L1_BREAKS])


def l1_norm_cylinder(g: PunctureGerm) -> float:
    """L^1 mass in cusp coordinates z = e^{-s+i theta}, s >= -log R.

    The area element becomes e^{-2s} ds dtheta; the s-cutoff is chosen so
    the dropped tail is below 1e-16 of the closed-form tail bound.
    """
    if pole_order(g) >= 2:
        return math.inf
    s0 = -math.log(g.radius)
    # tail from S: 2*2pi*sum |c_k| e^{-(k+2)S}/(k+2), slowest mode k = -1
    s1 = s0 + 45.0

    def integrand(s: np.ndarray) -> np.ndarray:
        r = np.exp(-s)
        return 4.0 * math.pi * np.exp(-2.0 * s) \
            * _abs_phi_at(g, r, _N_THETA).mean(axis=1)

    pts = [s0 + d for d in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)]
    return adaptive_quad(integrand, s0, s1, points=pts)


# --- truncation ladder (divergence probe) -------------------------------------

@dataclass(frozen=True)
class TruncationProfile:
    """Masses of annuli eps_j < |z| < R on a shrinking ladder.

    ``values`` are the cumulative truncated masses, ``increments`` the
    annulus contributions, ``tail_ratio`` the geometric-mean ratio of the
    last increments, and ``log_slope`` the fitted d(mass)/d(log 1/eps)
    over the tail -- the constant that quantifies a log divergence
    (4 pi |c| for a pure double pole c z^{-2}).
    """
    epsilons: tuple
    values: tuple
    increments: tuple
    tail_ratio: float
    log_slope: float

    @property
    def converged(self) -> bool:
        # geometric decay of annulus masses; a log divergence sits at
        # ratio 1 and worse poles above it
        return self.tail_ratio < 0.7


def truncation_profile(g: PunctureGerm) -> TruncationProfile:
    R = g.radius
    eps = [R / _SHRINK ** (j + 1) for j in range(_STEPS)]
    if g.is_zero:
        zeros = (0.0,) * _STEPS
        return TruncationProfile(tuple(eps), zeros, zeros, 0.0, 0.0)
    integrand = _l1_integrand(g, _N_THETA_DETECT)
    incs = [adaptive_quad(integrand, lo, hi, tol_abs=1e-300, tol_rel=1e-10,
                          points=[math.sqrt(lo * hi)])
            for lo, hi in zip(eps, [R] + eps[:-1])]
    values = list(np.cumsum(incs))
    tail = [x for x in incs[-4:] if x > 0]
    if len(tail) >= 2:
        ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
        tail_ratio = float(np.exp(np.mean(np.log(ratios)))) if all(
            r > 0 for r in ratios) else 0.0
    else:
        tail_ratio = 0.0
    # slope of cumulative mass against log(1/eps) over the last few rungs
    xs = np.log(1.0 / np.array(eps[-5:]))
    ys = np.array(values[-5:])
    log_slope = float(np.polyfit(xs, ys, 1)[0])
    return TruncationProfile(tuple(eps), tuple(values), tuple(incs),
                             tail_ratio, log_slope)


# --- boundedness of the metric density -----------------------------------------

@dataclass(frozen=True)
class GermBound:
    bounded: bool
    sup: float
    r_at: float | None = None


def hyperbolic_density(g: PunctureGerm, r, n_theta: int = 256) -> np.ndarray:
    """|Phi| = 2 |phi| r^2 (log r)^2 on circles; rows radii, cols theta."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any((r <= 0) | (r > g.radius)):
        raise DomainError("radii must lie in (0, radius]")
    return 2.0 * _abs_phi_at(g, r, n_theta) \
        * (r * r * np.log(r) ** 2)[:, None]


def is_bounded(g: PunctureGerm) -> GermBound:
    """Boundedness of the metric density, with its sup (inf if unbounded).

    The boolean comes from the pole order (the density behaves like
    r^{2-p} (log r)^2 at a pole of order p); a finite sup is computed by
    grid search plus local refinement.  For a single mode the density is
    monotone increasing on (0, R] whenever R < e^{-2/(k+2)} -- true for
    the default radius -- so the sup sits exactly at the rim.
    """
    if g.is_zero:
        return GermBound(True, 0.0)
    if pole_order(g) >= 2:
        return GermBound(False, math.inf)
    R = g.radius
    if len(g.coeffs) == 1 and R < math.exp(-2.0 / (min(g.coeffs) + 2)):
        (k, c), = g.coeffs.items()
        sup = 2.0 * abs(c) * R ** (k + 2) * math.log(R) ** 2
        return GermBound(True, sup, R)
    lo = R * math.exp(-60.0)    # density of a pole<=1 germ is negligible here
    r = np.geomspace(lo, R, 1025)
    dens = hyperbolic_density(g, r, _N_THETA)
    i, j = np.unravel_index(np.argmax(dens), dens.shape)
    r_lo = r[max(i - 1, 0)]
    r_hi = r[min(i + 1, r.size - 1)]
    best = float(dens[i, j])
    best_r = float(r[i])
    for _ in range(40):
        rr = np.linspace(r_lo, r_hi, 33)
        d = hyperbolic_density(g, rr, _N_THETA)
        i, j = np.unravel_index(np.argmax(d), d.shape)
        if float(d[i, j]) > best:
            best, best_r = float(d[i, j]), float(rr[i])
        width = r_hi - r_lo
        r_lo = max(lo, best_r - 0.1 * width)
        r_hi = min(R, best_r + 0.1 * width)
        if width <= 1e-14 * R:
            break
    return GermBound(True, best, best_r)


def _annulus_sups(g: PunctureGerm, eps) -> np.ndarray:
    """Per-annulus density sups marching toward the puncture, on the
    truncation ladder's annuli eps_j < |z| < eps_{j-1} (eps_{-1} = R)."""
    return np.array([
        float(hyperbolic_density(g, np.geomspace(lo, hi, 33),
                                 _N_THETA_DETECT).max())
        for lo, hi in zip(eps, (g.radius, *eps[:-1]))])


# --- the classification, three independent ways --------------------------------

@dataclass(frozen=True)
class Classification:
    integrable: bool
    bounded: bool
    simple_pole_or_better: bool

    @property
    def agree(self) -> bool:
        return self.integrable == self.bounded == self.simple_pole_or_better


def classify(g: PunctureGerm) -> Classification:
    """Three equivalent finiteness conditions, each decided on its own.

    * integrable: truncation ladder of the polar quadrature converges
      geometrically;
    * bounded: per-annulus sups of the metric density stop growing on
      the way into the puncture;
    * simple_pole_or_better: index inspection of the Laurent window.

    The numeric detectors probe radii down to R * 4^{-17}; coefficient
    scales engineered to hide a pole below that (a double pole weighted
    1e-12 against an O(1) regular part) can fool them.  The equivalence
    is a theorem at exact arithmetic, not a promise about adversarial
    floating-point inputs.
    """
    profile = truncation_profile(g)
    sups = _annulus_sups(g, profile.epsilons)
    # a bounded density decays into the cusp; any pole >= 2 forces the
    # tail back up (at least like (log r)^2)
    bounded = not (sups[-1] > sups[-4] * (1.0 + 1e-9))
    simple = pole_order(g) <= 1
    return Classification(profile.converged, bounded, simple)


# --- JSON ----------------------------------------------------------------------

def germ_from_json(data, radius: float = CUSP_DISC_RADIUS) -> PunctureGerm:
    """Parse a germ file: JSON array of {k, re, im}."""
    return PunctureGerm(modes_from_json(data, "k"), radius=radius)


def germ_to_json(g: PunctureGerm) -> list:
    return modes_to_json(g.coeffs, "k")


def load_germ(path, radius: float = CUSP_DISC_RADIUS) -> PunctureGerm:
    return germ_from_json(read_json(path), radius=radius)
