"""Kernel-level checks: anchored window integrals against frozen
high-precision values, the overflow-guard scaling function, and the
adaptive Gauss-Kronrod rule against scipy's QUADPACK."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import collardiff.cusps
import collardiff.laurent
import collardiff.numerics
from collardiff.collar import CollarParams, cos_profile_vec, thin_boundary
from collardiff.cusps import (PunctureGerm, l1_norm_cylinder,
                              l1_norm_hyperbolic, l1_norm_quadrature,
                              truncation_profile)
from collardiff.errors import QuadratureError
from collardiff.laurent import SubCollar, lp_norm, mode_inner_quadrature_ratios
from collardiff.numerics import (DEFAULT_TOL_ABS, DEFAULT_TOL_REL,
                                 adaptive_quad, exp_cos2_integral,
                                 exp_cos2_window, exp_scale,
                                 vec_exp_cos2_window)
from conftest import random_qd

# mpmath (mp.dps=60) evaluations of integral exp(a*(s-anchor))*cos(b*s)^2
# over [s1, s2], anchor at the growing endpoint.  The b values are
# ell/(2*pi) for ell in {0.1, 0.5, 1.0, 1e-4, 0.3, 1.2}; the last wide
# case sits at window coordinates ~1e5 where the naive antiderivative
# overflows.
FROZEN_WINDOWS = [
    (2.0, 0.1 / (2 * math.pi), -30.0, 30.0, 0.39762699742948485, 30.0),
    (-4.0, 0.5 / (2 * math.pi), -10.0, 3.0, 0.12737480949699235, -10.0),
    (64.0, 1.0 / (2 * math.pi), 0.25, 5.5, 0.0064528009268962872, 5.5),
    (2.0, 1e-4 / (2 * math.pi), -90000.0, 98000.0, 6.1445463564152003e-5, 98000.0),
    (0.0, 0.3 / (2 * math.pi), -20.0, 20.0, 29.875771726344529, 0.0),
    (-12.0, 1.2 / (2 * math.pi), 1.0, 1.0625, 0.042297758577870752, 1.0),
]


@pytest.mark.parametrize("a,b,s1,s2,expected,anchor", FROZEN_WINDOWS)
def test_window_integral_frozen(a, b, s1, s2, expected, anchor):
    val, anc = exp_cos2_window(a, b, s1, s2)
    assert anc == anchor
    assert val == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("a,b,s1,s2,expected,anchor", FROZEN_WINDOWS)
@given(rates=st.lists(st.floats(-128, 128), max_size=4),
       pos=st.integers(0, 4))
def test_vec_window_matches_scalar(a, b, s1, s2, expected, anchor, rates,
                                   pos):
    # a float call gives the bits of its element in any array call
    i = min(pos, len(rates))
    rates.insert(i, a)
    vals, ancs = exp_cos2_window(np.array(rates), b, s1, s2)
    assert ancs[i] == anchor
    assert vals[i] == pytest.approx(expected, rel=1e-13)
    for rate, val, anc in zip(rates, vals, ancs):
        got = exp_cos2_window(rate, b, s1, s2)
        assert [x.hex() for x in got] == [float(val).hex(), float(anc).hex()]
    shim = vec_exp_cos2_window(np.array(rates), b, s1, s2)
    assert shim[0].tobytes() == vals.tobytes()


def test_window_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        exp_cos2_window(1.0, 0.5, 2.0, 1.0)


@pytest.mark.parametrize("ell", [1e-307, 6e-308])
def test_window_past_half_dbl_max(ell):
    # X > DBL_MAX/2, where the full width X - (-X) overflows to inf
    c = CollarParams(ell)
    x = c.half_length
    assert x > 0.5 * np.finfo(float).max
    vals, anchors = exp_cos2_window(np.array([-4.0, -2.0, 0.0, 2.0, 6.0]),
                                    c.freq, -x, x)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert list(anchors) == [-x, -x, 0.0, x, x]
    # the flat mode integrates cos^2 over about one period, pi/b ~ 2X
    assert vals[2] == pytest.approx(x, rel=1e-12)


@given(a=st.floats(-8, 8), b=st.floats(1e-3, 1.0),
       s1=st.floats(-12, 12), h=st.floats(1e-6, 8))
def test_window_against_quadrature(a, b, s1, h):
    # independent route: Gauss-Kronrod on the anchored integrand directly
    s2 = s1 + h
    val, anc = exp_cos2_window(a, b, s1, s2)
    ref = adaptive_quad(lambda s: np.exp(a * (s - anc)) * np.cos(b * s) ** 2,
                        s1, s2, tol_abs=1e-13, tol_rel=1e-12)
    assert val == pytest.approx(ref, rel=1e-9, abs=1e-12)


@given(a=st.floats(-60, 60), b=st.floats(1e-3, 1.0))
def test_window_additivity(a, b):
    # [s1,s2] splits at the midpoint; totals must agree after unanchoring
    s1, sm, s2 = -3.0, 0.4, 5.0
    whole = exp_cos2_integral(a, b, s1, s2)
    parts = exp_cos2_integral(a, b, s1, sm) + exp_cos2_integral(a, b, sm, s2)
    assert whole == pytest.approx(parts, rel=1e-11)


# mpmath (mp.dps=60) values of the same anchored integral on windows of
# width <= 1e-9 (float endpoints as written).  Plain exp(z) - 1, or
# cos(y) - 1 in place of the half-angle form, is off by 1e-14 to 4e-10.
FROZEN_SHORT_WINDOWS = [
    (2.0, 1.2 / (2 * math.pi), 0.5, 0.5 + 2.0 ** -30, 9.228557134096045e-10),
    (-2.0, 0.1 / (2 * math.pi), -3.0, -3.0 + 1e-10, 9.977220876782494e-11),
    (128.0, 0.5 / (2 * math.pi), 7.25, 7.25 + 1e-9, 7.024744845233481e-10),
]


@pytest.mark.parametrize("a,b,s1,s2,expected", FROZEN_SHORT_WINDOWS)
def test_short_window_frozen(a, b, s1, s2, expected):
    val, anc = exp_cos2_window(a, b, s1, s2)
    assert anc == (s2 if a > 0 else s1)
    assert val == pytest.approx(expected, rel=1e-15)


def test_exp_scale_ranges():
    assert exp_scale(2.0, 10.0) == pytest.approx(2.0 * math.exp(10.0), rel=1e-15)
    assert exp_scale(0.0, 1e9) == 0.0
    # mag ~ 1e-300 with t = 1000: naive exp(t) overflows, product is finite
    assert exp_scale(1e-300, 1000.0) == pytest.approx(
        math.exp(math.log(1e-300) + 1000.0), rel=1e-12)
    assert exp_scale(1.0, 800.0) == math.inf
    assert exp_scale(-1.0, 800.0) == -math.inf
    assert exp_scale(1.0, -800.0) == 0.0


def test_scale_complex_keeps_phase():
    z = complex(3.0, 4.0)
    w = exp_scale(z, -750.0)
    assert w.real == pytest.approx(0.6 * abs(w), rel=1e-9)
    assert exp_scale(0j, 1e6) == 0j
    t = np.array([-750.0, 3.0, 800.0])
    assert np.allclose(exp_scale(z, t),
                       [exp_scale(z, x) for x in t], rtol=1e-12)
    assert not exp_scale(0j, t).any()


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


_NONZERO_MAGS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1e300, allow_nan=False,
                       allow_infinity=False)).filter(lambda m: m != 0)


@given(mag=_NONZERO_MAGS,
       ts=st.lists(st.floats(-708.39, 709.78, exclude_min=True,
                             exclude_max=True), min_size=1, max_size=8))
def test_exp_scale_is_the_plain_product_inside_the_exp_range(mag, ts):
    # a float t takes math.exp, an array of t np.exp; the two differ in
    # the last bit for a few t, so each is held to its own
    for t in ts:
        got = exp_scale(mag, t)
        assert type(got) is type(mag * math.exp(t))
        assert _bits(got) == _bits(mag * math.exp(t))
    t = np.array(ts)
    got = exp_scale(mag, t)
    with np.errstate(over="ignore"):   # a true overflow is inf
        want = (mag * np.exp(t)).astype(complex)
    assert got.dtype == complex and got.tobytes() == want.tobytes()


@given(mag=_NONZERO_MAGS,
       t=st.one_of(st.floats(-1500.0, -708.39), st.floats(709.78, 1500.0)))
@example(mag=1.0, t=709.782)   # e^t is finite up to log(DBL_MAX) = 709.7827...
@example(mag=0.5 - 0.5j, t=709.9)
def test_exp_scale_past_the_exp_range(mag, t):
    # log space: |mag| e^t within 1e-12 of 30 digits wherever it is a
    # normal double, with mag's phase
    with mpmath.workdps(30):
        want = abs(mpmath.mpc(mag)) * mpmath.exp(t)
        if not np.finfo(float).tiny <= want <= np.finfo(float).max:
            return
        phase = mpmath.mpc(mag) / abs(mpmath.mpc(mag))
        for got in (exp_scale(mag, t), exp_scale(mag, np.array([t]))[0]):
            assert abs(abs(got) - want) <= 1e-12 * want
            assert abs(mpmath.mpc(got) / abs(got) - phase) <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exp_scale_forms_each_element_on_its_own_branch():
    # e^750 alone overflows; 1e-300 e^750 does not, and the plain product
    # (1e-300 + 0j) * inf, had it been formed, would be inf + nan j
    got = exp_scale(1e-300 + 0j, np.array([750.0, 3.0]))
    assert got[0] == pytest.approx(math.exp(math.log(1e-300) + 750.0),
                                   rel=1e-12)
    assert got[1] == 1e-300 * np.exp(3.0)


def test_adaptive_quad_known_value():
    v = adaptive_quad(lambda x: np.exp(-x * x), -8.0, 8.0,
                      tol_abs=1e-13, tol_rel=1e-13)
    assert v == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_adaptive_quad_failure_raises():
    # 1/x is not integrable at 0: the interval limit is reached first
    with pytest.raises(QuadratureError, match="within 200 intervals"):
        adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0)
    with pytest.raises(QuadratureError, match="non-finite"):
        adaptive_quad(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)
    with pytest.raises(ValueError, match="limits must be finite"):
        adaptive_quad(lambda x: np.exp(-x), 0.0, math.inf)
    # every interval's error estimate reaches its roundoff floor, 50 eps
    # times the integral of |f|, far above 1e-20 of the value
    with pytest.raises(QuadratureError, match="exceeds the requested") as exc:
        adaptive_quad(lambda x: np.exp(-x * x), -8.0, 8.0, tol_abs=0.0,
                      tol_rel=1e-20)
    assert exc.value.estimate == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    # there too at tol_rel 2e-15, but the estimate 1.968e-14 is within 10x
    # of the tolerance, so the value is returned; at 1e-15 it is not
    assert adaptive_quad(lambda x: np.exp(-x * x), -8.0, 8.0, tol_abs=0.0,
                         tol_rel=2e-15) == 1.7724538509055159
    with pytest.raises(QuadratureError, match="estimate 1.968e-14 exceeds"):
        adaptive_quad(lambda x: np.exp(-x * x), -8.0, 8.0, tol_abs=0.0,
                      tol_rel=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("which", ["tol_abs", "tol_rel"])
def test_adaptive_quad_rejects_bad_tolerances(which, bad):
    # max(tol_abs, NaN) would drop the NaN, and an inf tolerance accepts
    # any estimate: neither may pass for a converged value
    with pytest.raises(ValueError, match="tolerances must be finite"):
        adaptive_quad(lambda x: np.exp(-x * x), -8.0, 8.0, **{which: bad})


def _integrand_families():
    """One call per integrand family that reaches adaptive_quad."""
    rng = np.random.default_rng(6)
    c = CollarParams(0.05)
    xd = thin_boundary(c, 0.4).x_delta
    thin = SubCollar(-xd, xd)
    q = random_qd(rng, c, n_max=8)
    germ = PunctureGerm({k: complex(*rng.standard_normal(2))
                         for k in range(-1, 3)})
    pole2 = PunctureGerm({-2: 1.0, 1: 0.5 + 0.25j})
    return {
        "lp_norm_p1": lambda: lp_norm(q, 1.0, thin),
        "lp_norm_p2": lambda: lp_norm(q, 2.0, thin),
        "lp_norm_p4": lambda: lp_norm(q, 4.0, thin),
        "l1_norm_quadrature": lambda: l1_norm_quadrature(germ),
        "l1_norm_hyperbolic": lambda: l1_norm_hyperbolic(germ),
        "l1_norm_cylinder": lambda: l1_norm_cylinder(germ),
        "annulus_mass": lambda: truncation_profile(pole2),
        "mode_inner_quadrature_ratios": lambda: mode_inner_quadrature_ratios(
            c, range(-8, 9), SubCollar(-30.0, 10.0)),
        "thin_area": lambda: collardiff.numerics.adaptive_quad(
            lambda s: (c.ell / (2.0 * math.pi * cos_profile_vec(c, s))) ** 2,
            -xd, xd, tol_abs=1e-12, tol_rel=1e-12),
    }


@pytest.mark.parametrize("family", list(_integrand_families()))
def test_adaptive_quad_matches_quadpack(monkeypatch, family):
    # every adaptive_quad call of the family also runs through scipy's
    # QUADPACK with the same tolerances, break points and interval limit
    # (adaptive_quad's constant 200).  Both meet the tolerance (1e-10
    # relative or tighter), so they may differ by twice it; measured, no
    # pair differs by more than 3.7e-16 relative, and the bound below
    # leaves a margin of about 300 over that.
    integrate = pytest.importorskip("scipy.integrate")
    pairs = []

    def both(f, lo, hi, *, tol_abs=DEFAULT_TOL_ABS, tol_rel=DEFAULT_TOL_REL,
             points=None):
        ours = adaptive_quad(f, lo, hi, tol_abs=tol_abs, tol_rel=tol_rel,
                             points=points)
        pts = sorted({p for p in points or () if lo < p < hi})
        ref = integrate.quad(lambda x: float(f(np.array([x]))[0]), lo, hi,
                             epsabs=tol_abs, epsrel=tol_rel, limit=200,
                             points=pts or None)[0]
        pairs.append((ours, ref))
        return ours

    for module in (collardiff.numerics, collardiff.laurent, collardiff.cusps):
        monkeypatch.setattr(module, "adaptive_quad", both)
    _integrand_families()[family]()
    assert pairs
    worst = max(abs(a - b) / abs(b) for a, b in pairs)
    print(f"{family}: {len(pairs)} quadratures, worst relative gap {worst:.2e}")
    assert worst <= 1e-13
