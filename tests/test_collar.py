"""Collar geometry against frozen high-precision values and invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from collardiff.collar import (CollarParams, DELTA_MAX, DEFAULT_DELTA0,
                               ELL_MAX, conformal_factor, cos_profile_vec,
                               disc_metric_density, injectivity_radius,
                               thin_area,
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
    assert thin_area(CollarParams(ell), delta) == pytest.approx(area, rel=1e-13)


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
    area = thin_area(c, delta)
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
    assert thin_area(CollarParams(1e-8), 0.3) == pytest.approx(
        4.0 * math.sinh(0.3), rel=1e-8)


def test_empty_thin_part():
    c = CollarParams(1.0)
    win = thin_boundary(c, 0.3)  # sinh(0.5) > sinh(0.3)
    assert win.empty and win.x_delta == 0.0
    assert thin_area(c, 0.3) == 0.0


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


def test_validate_delta0():
    assert validate_delta0(DEFAULT_DELTA0) >= 1.0
    assert validate_delta0(0.4, ell_values=[1e-4, 0.3, ELL_MAX]) >= 1.0
    # gap degenerates to pi*(1/sinh(d)-1) < 1 as ell -> 0 for d = 0.75
    with pytest.raises(DomainError):
        validate_delta0(0.75)
