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

# Threshold below which the growth rate a is treated as exactly zero in
# the window integral.  a = 2n for integer modes, so only n = 0 hits it.
_A_ZERO = 1e-12
# math.exp(t) is finite and normal for _EXP_LO < t < _EXP_HI
_EXP_LO, _EXP_HI = -708.39, 709.78
_QUAD_LIMIT = 200   # intervals before adaptive_quad gives up
DEFAULT_TOL_ABS = DEFAULT_TOL_REL = 1e-10   # the package's tolerances


def exp_scale(mag: float, t: float) -> float:
    """mag * exp(t) without spurious intermediate overflow.

    The true product may still overflow to inf (or underflow to 0);
    that is reported honestly.
    """
    if mag == 0.0:
        return 0.0
    if _EXP_LO < t < _EXP_HI:
        return mag * math.exp(t)
    # log space, only where exp(t) alone is not finite and normal: the sum
    # log|mag| + t rounds at |t| * eps, so the product is off by about
    # |t| * eps relative (~1.7e-13 at |t| = 750)
    lt = math.log(abs(mag)) + t
    if lt > _EXP_HI:
        return math.inf if mag > 0 else -math.inf
    if lt < -745.0:
        return 0.0
    v = math.exp(lt)
    return v if mag > 0 else -v


def scale_complex(z: complex, t: float) -> complex:
    """z * exp(t) with the same overflow guard as exp_scale."""
    if z == 0:
        return 0j
    if _EXP_LO < t < _EXP_HI:
        return z * math.exp(t)
    r = exp_scale(abs(z), t)
    return (z / abs(z)) * r


def vec_scale_complex(z: complex, t: np.ndarray) -> np.ndarray:
    """scale_complex over an array of exponents t."""
    t = np.asarray(t, dtype=float)
    if z == 0:
        return np.zeros(t.shape, dtype=complex)
    with np.errstate(over="ignore"):
        return np.where((_EXP_LO < t) & (t < _EXP_HI), z * np.exp(t),
                        (z / abs(z)) * np.exp(math.log(abs(z)) + t))


def exp_cos2_window(a, b: float, s1: float, s2: float):
    """Anchored window integral of exp(a*s) * cos(b*s)**2.

    Returns (value, anchor) with
        integral over [s1, s2] = exp(a*anchor) * value,
    anchor at the endpoint where exp(a*s) is largest (0 for a = 0), for
    a float growth rate a or elementwise for an array of them.  A float
    gives the bits of the same element of an array call.  Requires b > 0
    and s1 <= s2.
    """
    if s2 < s1:
        raise ValueError(f"window endpoints out of order: {s1} > {s2}")
    a = np.asarray(a, dtype=float)
    rates = np.atleast_1d(a)
    # half width first: s2 - s1 overflows once X > DBL_MAX/2, while every
    # product below is a power-of-two rescaling with the same bits
    hh = 0.5 * s2 - 0.5 * s1
    h = 2.0 * hh
    alpha = np.abs(rates)
    zero = alpha < _A_ZERO
    up = rates > 0
    anchors = np.where(zero, 0.0, np.where(up, s2, s1))
    # integral over [t2 - h, t2] of exp(alpha*(t - t2)) * cos(b*t)**2 with
    # alpha = |a| > 0: a < 0 reflects s -> -s, and cos^2 is even.  Both
    # terms are assembled from expm1 so short windows lose no precision,
    # and every exponent is <= 0.  Entries with a = 0 take alpha = 1 here
    # and the plain cos^2 antiderivative below.
    alpha = np.where(zero, 1.0, alpha)
    t2 = np.where(up, s2, -s1)
    x = -alpha * h
    em1 = np.expm1(x)
    term1 = -em1 / (2.0 * alpha)
    # exp(x + iy) - 1 from the real expm1 and the half-angle identity
    # cos(y) - 1 = -2*sin(y/2)**2, so both parts keep full precision
    y = -4.0 * b * hh
    sy2 = math.sin(0.5 * y)
    w = em1 * math.cos(y) - 2.0 * sy2 * sy2
    wim = np.exp(x) * math.sin(y)
    phase = np.exp(1j * 2.0 * b * t2)
    denom = alpha + 2.0j * b
    term2 = (phase * -(w + 1j * wim) / denom).real / 2.0
    # a = 0: the sin difference of the cos^2 antiderivative is collapsed
    # to a product, stable as written
    flat = hh + math.cos(2.0 * b * (0.5 * s1 + 0.5 * s2)) \
        * math.sin(2.0 * b * hh) / (2.0 * b)
    vals = np.where(zero, flat, term1 + term2)
    if a.ndim == 0:
        return float(vals[0]), float(anchors[0])
    return vals, anchors


def exp_cos2_integral(a: float, b: float, s1: float, s2: float) -> float:
    """Plain (un-anchored) window integral; may overflow to inf honestly."""
    val, anchor = exp_cos2_window(a, b, s1, s2)
    return exp_scale(val, a * anchor)


# perfbench/tracer.py wraps this name; an alias would be wrapped twice.
def vec_exp_cos2_window(a, b, s1, s2):
    return exp_cos2_window(a, b, s1, s2)


# QUADPACK's qk21 rule (Piessens et al., 1983): the 21-point Kronrod
# abscissae on [0, 1] with their weights, then the weights of the embedded
# 10-point Gauss rule, whose nodes are _XGK[1], _XGK[3], ..., _XGK[9].
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208977044720, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

# the same rules on all 21 nodes of [-1, 1], left to right
_X21 = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_W21 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG21 = np.zeros(21)
_WG21[1:10:2] = _WG
_WG21[19:10:-2] = _WG

_EPS = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _gk21(f, a: np.ndarray, b: np.ndarray):
    """qk21 on every interval (a[i], b[i]) with one call of f.

    Returns the Kronrod results, their error estimates and each
    estimate's roundoff floor, 50 * eps * integral of |f|, formed as
    QUADPACK's qk21 forms them (its sums run in another order).
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    x = centr[:, None] + hlgth[:, None] * _X21
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    # a non-finite f makes the result non-finite, which the caller reports
    with np.errstate(all="ignore"):
        resk = (fx * _W21).sum(axis=1)
        resg = (fx * _WG21).sum(axis=1)
        dh = np.abs(hlgth)
        resabs = (np.abs(fx) * _W21).sum(axis=1) * dh
        resasc = (np.abs(fx - 0.5 * resk[:, None]) * _W21).sum(axis=1) * dh
        err = np.abs((resk - resg) * hlgth)
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        floor = np.where(resabs > _UFLOW / (50.0 * _EPS),
                         50.0 * _EPS * resabs, 0.0)
        return resk * hlgth, np.maximum(err, floor), floor


def adaptive_quad(f, lo: float, hi: float, *,
                  tol_abs: float = DEFAULT_TOL_ABS,
                  tol_rel: float = DEFAULT_TOL_REL,
                  points=None) -> float:
    """Global adaptive Gauss-Kronrod (G10/K21) quadrature over [lo, hi].

    ``lo``, ``hi`` and the tolerances must be finite, the tolerances >= 0
    (a NaN one would drop out of the max below).  ``f`` takes a 1-D array
    of abscissae and returns the integrand there, an array of the same size.
    The break ``points`` inside (lo, hi) seed the first intervals.  Each
    round bisects the intervals with the largest error estimates, worst
    first, until the rest hold at most half the tolerance
    max(tol_abs, tol_rel * |value|), and evaluates f once on the nodes of
    every new interval.  There is no extrapolation.  Raises
    QuadratureError, never returns a silently bad value, when _QUAD_LIMIT
    intervals are reached before convergence, when the value or its error
    estimate is not finite, and when no interval can be refined further
    (every estimate is at its roundoff floor, or the interval is too
    short to bisect) with the error estimate still more than 10 times the
    tolerance.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration limits must be finite: [{lo}, {hi}]")
    if not (0.0 <= tol_abs < math.inf and 0.0 <= tol_rel < math.inf):
        raise ValueError(f"quadrature tolerances must be finite and >= 0, "
                         f"got tol_abs={tol_abs!r}, tol_rel={tol_rel!r}")
    inner = sorted({float(p) for p in points or ()
                    if min(lo, hi) < p < max(lo, hi)}, reverse=hi < lo)
    edges = np.array([lo, *inner, hi], dtype=float)
    a, b = edges[:-1], edges[1:]
    res, err, floor = _gk21(f, a, b)
    while True:
        value, abserr = float(res.sum()), float(err.sum())
        if not (math.isfinite(value) and math.isfinite(abserr)):
            raise QuadratureError(
                f"quadrature produced a non-finite value {value} "
                f"(abs error {abserr:.3e})", estimate=value, error=abserr)
        tol = max(tol_abs, tol_rel * abs(value))
        if abserr <= tol:
            return value
        mid = 0.5 * (a + b)
        # QUADPACK's test for an interval too short to bisect
        wide = np.maximum(np.abs(a), np.abs(b)) \
            > (1.0 + 100.0 * _EPS) * (np.abs(mid) + 1000.0 * _UFLOW)
        can = (err > floor) & wide
        if not can.any():
            if abserr > 10.0 * tol:
                raise QuadratureError(
                    f"quadrature error estimate {abserr:.3e} exceeds the "
                    f"requested tolerance (estimate {value:.17g})",
                    estimate=value, error=abserr)
            return value
        if a.size >= _QUAD_LIMIT:
            raise QuadratureError(
                f"quadrature did not converge within {_QUAD_LIMIT} intervals "
                f"(estimate {value:.17g}, abs error {abserr:.3e})",
                estimate=value, error=abserr)
        worst = np.flatnonzero(can)[np.argsort(-err[can], kind="stable")]
        left = abserr - np.cumsum(err[worst])
        take = min(int(np.searchsorted(-left, -0.5 * tol)) + 1,
                   worst.size, _QUAD_LIMIT - a.size)
        split = np.zeros(a.size, dtype=bool)
        split[worst[:take]] = True
        new_a = np.concatenate([a[split], mid[split]])
        new_b = np.concatenate([mid[split], b[split]])
        new = _gk21(f, new_a, new_b)
        keep = ~split
        a, b = np.concatenate([a[keep], new_a]), np.concatenate([b[keep], new_b])
        res, err, floor = (np.concatenate([old[keep], part])
                           for old, part in zip((res, err, floor), new))
