"""Low-level numerical kernels.

The mode integrals behind every closed-form norm in this package reduce
to ``integral of exp(a*s) * cos(b*s)**2`` over a window.  Evaluated
naively, the antiderivative overflows long before the quantities we
actually want do (the window can sit at s ~ 1e5 with a = 64), so every
kernel here returns an *anchored* value: the integral of
``exp(a*(s - anchor)) * cos(b*s)**2`` with the anchor chosen so that no
exponent is positive.  Callers re-apply ``exp(a*anchor)`` only at the
end, via exp_scale, which falls back to log-space arithmetic when the
plain product would over- or underflow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError

# Default tolerances for the adaptive quadrature oracle paths.
DEFAULT_TOL_ABS = 1e-10
DEFAULT_TOL_REL = 1e-10

# Threshold below which the growth rate a is treated as exactly zero in
# the window integral.  a = 2n for integer modes, so only n = 0 hits it.
_A_ZERO = 1e-12


def cexpm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small z.

    Built from the real expm1 and the half-angle identity
    cos(y) - 1 = -2*sin(y/2)**2, so both parts keep full precision.
    """
    x, y = z.real, z.imag
    sy2 = math.sin(0.5 * y)
    re = math.expm1(x) * math.cos(y) - 2.0 * sy2 * sy2
    im = math.exp(x) * math.sin(y)
    return complex(re, im)


def exp_scale(mag: float, t: float) -> float:
    """mag * exp(t) without spurious intermediate overflow.

    The true product may still overflow to inf (or underflow to 0);
    that is reported honestly.
    """
    if mag == 0.0:
        return 0.0
    if -700.0 < t < 700.0:
        return mag * math.exp(t)
    # log-space path; costs a few ulps of relative accuracy, only taken
    # in regimes far beyond any tight-tolerance test domain.
    lt = math.log(abs(mag)) + t
    if lt > 709.0:
        return math.inf if mag > 0 else -math.inf
    if lt < -745.0:
        return 0.0
    v = math.exp(lt)
    return v if mag > 0 else -v


def scale_complex(z: complex, t: float) -> complex:
    """z * exp(t) with the same overflow guard as exp_scale."""
    if z == 0:
        return 0j
    if -700.0 < t < 700.0:
        return z * math.exp(t)
    r = exp_scale(abs(z), t)
    return (z / abs(z)) * r


def _core_exp_cos2(alpha: float, b: float, t1: float, t2: float) -> float:
    # integral over [t1, t2] of exp(alpha*(t - t2)) * cos(b*t)**2, alpha > 0.
    # Both terms are assembled from expm1/cexpm1 so short windows lose no
    # precision, and every exponent is <= 0.
    h = t2 - t1
    term1 = -math.expm1(-alpha * h) / (2.0 * alpha)
    w = cexpm1(complex(-alpha * h, -2.0 * b * h))
    phase = complex(math.cos(2.0 * b * t2), math.sin(2.0 * b * t2))
    term2 = (phase * (-w) / complex(alpha, 2.0 * b)).real / 2.0
    return term1 + term2


def exp_cos2_window(a: float, b: float, s1: float, s2: float) -> tuple[float, float]:
    """Anchored window integral of exp(a*s) * cos(b*s)**2.

    Returns (value, anchor) with
        integral over [s1, s2] = exp(a*anchor) * value,
    anchor at the endpoint where exp(a*s) is largest.  Requires b > 0
    and s1 <= s2.
    """
    if s2 < s1:
        raise ValueError(f"window endpoints out of order: {s1} > {s2}")
    if abs(a) < _A_ZERO:
        # n = 0 mode: plain cos^2 antiderivative, stable as written
        # (the sin difference is collapsed to a product).
        h = s2 - s1
        val = 0.5 * h + math.cos(b * (s1 + s2)) * math.sin(b * h) / (2.0 * b)
        return val, 0.0
    if a > 0:
        return _core_exp_cos2(a, b, s1, s2), s2
    # reflect s -> -s; cos^2 is even so only the window flips
    return _core_exp_cos2(-a, b, -s2, -s1), s1


def exp_cos2_integral(a: float, b: float, s1: float, s2: float) -> float:
    """Plain (un-anchored) window integral; may overflow to inf honestly."""
    val, anchor = exp_cos2_window(a, b, s1, s2)
    return exp_scale(val, a * anchor)


def vec_exp_cos2_window(a: np.ndarray, b: float, s1: float, s2: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized exp_cos2_window over an array of growth rates a."""
    a = np.asarray(a, dtype=float)
    h = s2 - s1
    vals = np.empty_like(a)
    anchors = np.where(a > 0, s2, np.where(a < 0, s1, 0.0))

    zero = np.abs(a) < _A_ZERO
    if np.any(zero):
        vals[zero] = 0.5 * h + math.cos(b * (s1 + s2)) * math.sin(b * h) / (2.0 * b)
    nz = ~zero
    if np.any(nz):
        alpha = np.abs(a[nz])
        # reflected window endpoints for a < 0
        t2 = np.where(a[nz] > 0, s2, -s1)
        term1 = -np.expm1(-alpha * h) / (2.0 * alpha)
        # complex expm1 via the same half-angle split as cexpm1
        x = -alpha * h
        y = -2.0 * b * h
        sy2 = math.sin(0.5 * y)
        w = np.expm1(x) * math.cos(y) - 2.0 * sy2 * sy2
        wim = np.exp(x) * math.sin(y)
        phase = np.exp(1j * 2.0 * b * t2)
        denom = alpha + 2.0j * b
        term2 = (phase * -(w + 1j * wim) / denom).real / 2.0
        vals[nz] = term1 + term2
    return vals, anchors


def adaptive_quad(f, lo: float, hi: float, *,
                  tol_abs: float = DEFAULT_TOL_ABS,
                  tol_rel: float = DEFAULT_TOL_REL,
                  points=None, limit: int = 200) -> float:
    """Adaptive quadrature with an explicit failure mode.

    Thin wrapper over QUADPACK: non-convergence or an error estimate
    that misses the requested tolerance by more than a factor of 10
    raises QuadratureError instead of returning a silently bad value.
    """
    # imported here: scipy.integrate is most of the package's import time
    # and most commands never integrate
    from scipy import integrate

    kwargs = {"epsabs": tol_abs, "epsrel": tol_rel, "limit": limit,
              "full_output": 1}
    if points is not None and math.isfinite(lo) and math.isfinite(hi):
        pts = [p for p in points if lo < p < hi]
        if pts:
            kwargs["points"] = sorted(set(pts))
    out = integrate.quad(f, lo, hi, **kwargs)
    value, abserr = out[0], out[1]
    if len(out) > 3:
        raise QuadratureError(
            f"quadrature did not converge: {out[3]} "
            f"(estimate {value:.17g}, abs error {abserr:.3e})",
            estimate=value, error=abserr)
    if not math.isfinite(value):
        raise QuadratureError(
            f"quadrature produced a non-finite value {value}",
            estimate=value, error=abserr)
    if abserr > 10.0 * max(tol_abs, tol_rel * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds the requested "
            f"tolerance (estimate {value:.17g})",
            estimate=value, error=abserr)
    return value
