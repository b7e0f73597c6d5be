"""Collar geometry against frozen high-precision values and invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from collardiff.collar import (CollarParams, DELTA_MAX, DEFAULT_DELTA0,
                               ELL_MAX, conformal_factor, cos_profile_vec,
                               disc_metric_density, injectivity_radius,
                               thin_area_bound, thin_boundary,
                               validate_delta0)
from collardiff.errors import DomainError
from collardiff.numerics import adaptive_quad

# mpmath mp.dps=60 references
FROZEN_X = {
    0.1: 95.555759536713342,
    1.0: 6.8512810628292355,
    0.001: 9866.4628085666683,
}
FROZEN_THIN = {
    # (ell, delta): (x_delta, area)
    (0.1, 0.2): (82.92059034774223, 0.77976840302922887),
    (0.5, 0.7): (15.473065564022011, 2.8315623668008608),
    (0.001, 0.4): (9861.9560121138333, 1.6430080174734807),
}

ells = st.floats(min_value=5e-3, max_value=ELL_MAX)
deltas = st.floats(min_value=0.05, max_value=DELTA_MAX - 1e-6)


@pytest.mark.parametrize("ell,expected", sorted(FROZEN_X.items()))
def test_half_length_frozen(ell, expected):
    assert CollarParams(ell).half_length == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("ell,delta", sorted(FROZEN_THIN))
def test_thin_boundary_frozen(ell, delta):
    xd, area = FROZEN_THIN[(ell, delta)]
    win = thin_boundary(CollarParams(ell), delta)
    assert win.x_delta == pytest.approx(xd, rel=1e-13)
    assert win.area == pytest.approx(area, rel=1e-13)


@given(ells, st.floats(-1.0, 1.0))
def test_boundary_identity(ell, u):
    # cos(ell*X/(2pi)) = tanh(ell/2), via the stabilized profile
    c = CollarParams(ell)
    x = c.half_length
    assert cos_profile_vec(c, x) == pytest.approx(math.tanh(0.5 * ell), rel=1e-13)
    assert cos_profile_vec(c, -x) == pytest.approx(math.tanh(0.5 * ell), rel=1e-13)
    # a float is a one-element array call, bit for bit, on either branch
    for s in (x, -x, u * x):
        got = cos_profile_vec(c, s)
        assert type(got) is float
        assert got.hex() == float(cos_profile_vec(c, np.array([s]))[0]).hex()


@given(ells, deltas)
def test_injectivity_at_thin_boundary(ell, delta):
    c = CollarParams(ell)
    win = thin_boundary(c, delta)
    r = math.sinh(0.5 * ell) / math.sinh(delta)
    assert win.empty == (r >= 1.0)
    assume(not win.empty and r > 1e-3)  # 1/r amplifies acos rounding
    assert injectivity_radius(c, win.x_delta) == pytest.approx(delta, rel=1e-12)


@given(ells)
def test_injectivity_profile(ell):
    c = CollarParams(ell)
    x = c.half_length
    assert injectivity_radius(c, 0.0) == pytest.approx(0.5 * ell, rel=1e-15)
    end = injectivity_radius(c, x)
    assert end == pytest.approx(math.asinh(math.cosh(0.5 * ell)), rel=1e-12)
    # monotone from the core outwards: thin part is the central band
    mid = injectivity_radius(c, 0.5 * x)
    assert 0.5 * ell <= mid <= end


@given(ells, deltas)
def test_thin_area_closed_vs_quadrature(ell, delta):
    c = CollarParams(ell)
    win = thin_boundary(c, delta)
    assume(not win.empty)
    area = win.area
    ref = 2.0 * math.pi * adaptive_quad(
        lambda s: (c.ell / (2.0 * math.pi * cos_profile_vec(c, s))) ** 2,
        -win.x_delta, win.x_delta, tol_abs=1e-12, tol_rel=1e-12)
    assert area == pytest.approx(ref, rel=1e-9)
    assert area <= thin_area_bound(c, delta) * (1.0 + 1e-12)


def test_small_ell_asymptotics():
    for ell in (1e-3, 1e-5, 1e-7):
        c = CollarParams(ell)
        assert ell * c.half_length == pytest.approx(math.pi ** 2, rel=ell)
        xd = thin_boundary(c, 0.4).x_delta
        approx = math.pi ** 2 / ell - math.pi / math.sinh(0.4)
        assert abs(xd - approx) < max(ell, 1e-8)
    # pinched-to-cusp limit of the thin area is 4*sinh(delta)
    assert thin_boundary(CollarParams(1e-8), 0.3).area == pytest.approx(
        4.0 * math.sinh(0.3), rel=1e-8)


def test_empty_thin_part():
    c = CollarParams(1.0)
    win = thin_boundary(c, 0.3)  # sinh(0.5) > sinh(0.3)
    assert win.empty and win.x_delta == 0.0
    assert win.area == 0.0
    assert win.r == math.sinh(0.5) / math.sinh(0.3)


@pytest.mark.xfail(strict=True, reason=(
    "acos(r) and 1 - r^2 cancel as r = sinh(ell/2)/sinh(delta) nears 1: "
    "X_delta and the thin area are 2e-11 to 5e-9 relative off at 1 - r "
    "in [1e-8, 1e-6] and 8e-7 off at 1e-10. Forming 1 - r^2 as "
    "sinh(delta - ell/2) sinh(delta + ell/2) / sinh(delta)^2 mends it, but "
    "X_delta places the sweeps' sup nodes and panels, so that moves every "
    "sweep report byte and the collar info digests"))
def test_thin_part_near_the_empty_threshold():
    from reference import thin_area as mp_thin_area, x_delta as mp_x_delta
    c = CollarParams(0.5)
    for gap in (1e-6, 1e-8, 1e-10):
        delta = math.asinh(math.sinh(0.25) / (1.0 - gap))
        assert thin_boundary(c, delta).x_delta == pytest.approx(
            float(mp_x_delta(0.5, delta)), rel=1e-12)
        assert thin_boundary(c, delta).area == pytest.approx(
            float(mp_thin_area(0.5, delta)), rel=1e-12)


def test_domain_errors():
    for bad in (0.0, -1.0, ELL_MAX + 1e-9, math.inf, math.nan):
        with pytest.raises(DomainError):
            CollarParams(bad)
    c = CollarParams(0.5)
    for bad in (0.0, DELTA_MAX, 1.5, math.nan):
        with pytest.raises(DomainError):
            thin_boundary(c, bad)
    with pytest.raises(DomainError):
        conformal_factor(c, c.half_length)  # boundary not in open collar
    with pytest.raises(DomainError):
        injectivity_radius(c, c.half_length + 1.0)
    with pytest.raises(DomainError):
        disc_metric_density(1.0)


@pytest.mark.parametrize("ell", [1e-2, 1e-4, 1e-8])
def test_conformal_factor_at_the_collar_edge(ell):
    # rho at s = X(1 - 1e-13), in 40 digits from the same float ell and s:
    # the boundary identity keeps cos > 0 up to the edge, so rho is taken
    # at s itself (a clamp to X(1 - 1e-12) was off by 2.8e-4 at ell 1e-8)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    c = CollarParams(ell)
    s = c.half_length * (1.0 - 1e-13)
    with mpmath.workdps(40):
        b = mp.mpf(ell) / (2 * mp.pi)
        want = b / mp.cos(b * mp.mpf(s))
    assert abs(conformal_factor(c, s) / want - 1) < 1e-7


def test_validate_delta0():
    assert validate_delta0(DEFAULT_DELTA0) >= 1.0
    assert validate_delta0(0.4) >= 1.0
    # gap degenerates to pi*(1/sinh(d)-1) < 1 as ell -> 0 for d = 0.75
    with pytest.raises(DomainError):
        validate_delta0(0.75)
    # the threshold is asinh(pi/(pi+1)) = 0.6999707536...
    assert validate_delta0(0.69997075) == pytest.approx(1.0, abs=1e-7)
    with pytest.raises(DomainError):
        validate_delta0(0.69998)


def test_validate_delta0_is_the_infimum_of_the_gap():
    # X - X_delta0 in 60 digits from the float ell and delta0, on a log
    # grid of ells from 1e-12 to ELL_MAX: never below the returned value
    # (up to its rounding), and within 1e-9 of it at an end of the grid,
    # the smallest ell, or ELL_MAX where the ell -> 0 limit exceeds X
    from reference import DPS, half_length, mpmath, x_delta
    ell_grid = [float(e) for e in np.geomspace(1e-12, ELL_MAX, 60)]
    for delta0 in np.linspace(0.01, DELTA_MAX, 12, endpoint=False)[1:]:
        delta0 = float(delta0)
        with mpmath.workdps(DPS):
            gaps = [half_length(ell) - x_delta(ell, delta0)
                    for ell in ell_grid]
        if gaps[0] < 1:
            with pytest.raises(DomainError):
                validate_delta0(delta0)
            continue
        got = validate_delta0(delta0)
        assert min(gaps) >= got * (1.0 - 1e-14), delta0
        assert abs(min(gaps[0], gaps[-1]) - got) <= 1e-9, delta0
