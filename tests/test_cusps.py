"""Puncture germs: integrability, boundedness, pole order, and the
three-way classification agreement."""

import json
import math
import warnings

import numpy as np
import pytest

from collardiff.collar import CUSP_DISC_RADIUS
from collardiff.cusps import (PunctureGerm, classify, germ_from_json,
                              germ_to_json, hyperbolic_density, is_bounded,
                              l1_norm, l1_norm_cylinder, l1_norm_hyperbolic,
                              l1_norm_quadrature, load_germ, pole_order,
                              truncation_profile)
from collardiff.errors import DomainError, ValidationError

# mpmath mp.dps=60: 4*pi*e^-pi, 2*pi*e^-2pi, 2*pi^2*e^-pi
L1_SIMPLE_POLE = 0.54304211260118677
L1_CONSTANT = 0.011733488733866946
SUP_SIMPLE_POLE = 0.85300855576888482


def test_germ_construction():
    g = PunctureGerm({-1: 1.0, 2: 0.0, 0: 1j})
    assert g.modes() == [-1, 0]
    assert g.radius == CUSP_DISC_RADIUS
    assert not g.is_zero
    assert PunctureGerm({}).is_zero
    z = CUSP_DISC_RADIUS * 0.5
    assert g.phi(z) == pytest.approx(1.0 / z + 1j)
    with pytest.raises(DomainError):
        g.phi(0)
    with pytest.raises(AttributeError):
        g.coeffs = {}
    with pytest.raises(ValidationError):
        PunctureGerm({-9: 1.0})  # below the mode floor -8
    with pytest.raises(ValidationError):
        PunctureGerm({True: 1.0})
    with pytest.raises(ValidationError):
        PunctureGerm({0: math.inf})
    with pytest.raises(DomainError):
        PunctureGerm({0: 1.0}, radius=1.0)


@pytest.mark.parametrize("coeffs", [{-8: 1.0}, {-1: 1.0, 1: 1.0}, {0: 1.0}],
                         ids=["k-8", "k-1,1", "k0"])
def test_radius_floor(coeffs):
    # 2^-91 keeps r^-8 finite on the ladder's last rung R / 4^17; every
    # route runs there without a RuntimeWarning
    floor = 2.0 ** -91
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g = PunctureGerm(coeffs, radius=floor)
        assert classify(g).agree
        l1_norm(g)
        is_bounded(g)
    with pytest.raises(DomainError, match=r"\[2\^-91, 1\)"):
        PunctureGerm(coeffs, radius=math.nextafter(floor, 0.0))


def test_pole_order_is_exact():
    assert pole_order(PunctureGerm({-3: 1.0, 0: 2.0})) == 3
    assert pole_order(PunctureGerm({0: 1.0})) == 0
    assert pole_order(PunctureGerm({2: 1.0})) == 0
    # no epsilon-thresholding: a stored 1e-30 is a genuine double pole
    assert pole_order(PunctureGerm({-2: 1e-30})) == 2
    assert l1_norm(PunctureGerm({-2: 1e-30})) == math.inf
    assert not is_bounded(PunctureGerm({-2: 1e-30})).bounded
    # the zero germ has no negative mode, so no pole
    assert pole_order(PunctureGerm({})) == 0


def test_l1_closed_forms_frozen():
    assert l1_norm(PunctureGerm({-1: 1.0})) == pytest.approx(
        L1_SIMPLE_POLE, rel=1e-14)
    assert l1_norm(PunctureGerm({0: 1.0})) == pytest.approx(
        L1_CONSTANT, rel=1e-14)
    # linear in |c|
    assert l1_norm(PunctureGerm({-1: 3j})) == pytest.approx(
        3.0 * L1_SIMPLE_POLE, rel=1e-13)


@pytest.mark.parametrize("k", [-1, 0, 1, 3])
def test_l1_quadrature_matches_closed_form(k):
    g = PunctureGerm({k: 0.7 - 0.2j})
    closed = 4.0 * math.pi * abs(0.7 - 0.2j) * g.radius ** (k + 2) / (k + 2)
    assert l1_norm_quadrature(g) == pytest.approx(closed, rel=1e-9)


def test_l1_metric_independence():
    # same mass through three coordinate systems / metric bookkeeping
    g = PunctureGerm({-1: 1.0, 0: -2.0, 2: 0.5j})
    flat = l1_norm(g)
    assert l1_norm_hyperbolic(g) == pytest.approx(flat, rel=1e-8)
    assert l1_norm_cylinder(g) == pytest.approx(flat, rel=1e-8)


def test_l1_divergence_handling():
    g = PunctureGerm({-2: 1.0, 1: 1.0})
    assert l1_norm(g) == math.inf
    assert l1_norm_cylinder(g) == math.inf
    assert l1_norm_hyperbolic(g) == math.inf
    with pytest.raises(DomainError):
        l1_norm_quadrature(g)


def test_l1_zero_germ():
    g = PunctureGerm({})
    assert l1_norm(g) == 0.0
    assert l1_norm_quadrature(g) == 0.0
    assert l1_norm_cylinder(g) == 0.0
    assert l1_norm_hyperbolic(g) == 0.0
    dens = hyperbolic_density(g, [1e-9, 1e-3, g.radius])
    assert dens.shape == (3, 256) and not dens.any()


def test_truncation_profile_regimes():
    # simple pole: annulus masses shrink by the ladder factor 1/4
    p = truncation_profile(PunctureGerm({-1: 1.0}))
    assert p.converged
    assert p.tail_ratio == pytest.approx(0.25, rel=1e-6)
    # double pole: constant-mass annuli, log slope exactly 4 pi |c|
    p2 = truncation_profile(PunctureGerm({-2: 0.5}))
    assert not p2.converged
    assert p2.tail_ratio == pytest.approx(1.0, rel=1e-6)
    assert p2.log_slope == pytest.approx(4.0 * math.pi * 0.5, rel=1e-6)
    # triple pole: masses grow
    p3 = truncation_profile(PunctureGerm({-3: 1.0}))
    assert not p3.converged and p3.tail_ratio > 2.0
    pz = truncation_profile(PunctureGerm({}))
    assert pz.converged and all(v == 0 for v in pz.values)
    # r^300 underflows on every rung: no two positive masses to take a
    # ratio of, so the tail ratio is 0 and the ladder converged
    pu = truncation_profile(PunctureGerm({300: 1.0}))
    assert pu.tail_ratio == 0.0 and pu.converged
    assert not any(pu.increments)
    c = classify(PunctureGerm({300: 1.0}))
    assert c.integrable and c.bounded and c.simple_pole_or_better


def test_sup_closed_form_frozen():
    out = is_bounded(PunctureGerm({-1: 1.0}))
    assert out.bounded
    assert out.sup == pytest.approx(SUP_SIMPLE_POLE, rel=1e-14)
    assert out.r_at == CUSP_DISC_RADIUS  # monotone up to the rim


def test_sup_interior_maximum():
    # radius beyond e^-2 pushes the max of 2 r (log r)^2 inside: r = e^-2
    out = is_bounded(PunctureGerm({-1: 1.0}, radius=0.25))
    assert out.sup == pytest.approx(8.0 * math.exp(-2.0), rel=1e-9)
    assert out.r_at == pytest.approx(math.exp(-2.0), rel=1e-6)


def test_sup_multimode_matches_dense_scan():
    g = PunctureGerm({-1: 0.8, 0: -0.4j, 1: 0.3})
    out = is_bounded(g)
    r = np.geomspace(g.radius * 1e-6, g.radius, 20001)
    ref = float(hyperbolic_density(g, r).max())
    assert out.bounded
    assert out.sup == pytest.approx(ref, rel=1e-6)
    assert out.sup >= ref * (1.0 - 1e-12)


def test_sup_unbounded_and_zero():
    assert not is_bounded(PunctureGerm({-2: 1.0})).bounded
    out = is_bounded(PunctureGerm({-2: 1.0, 0: 1.0}))
    assert not out.bounded and out.sup == math.inf
    z = is_bounded(PunctureGerm({}))
    assert z.bounded and z.sup == 0.0


def test_density_domain():
    g = PunctureGerm({-1: 1.0})
    with pytest.raises(DomainError):
        hyperbolic_density(g, [g.radius * 2.0])
    with pytest.raises(DomainError):
        hyperbolic_density(g, [0.0])


@pytest.mark.parametrize("k", range(-4, 5))
def test_classify_single_modes(k):
    v = classify(PunctureGerm({k: 1.5 - 0.5j}))
    assert v.agree
    assert v.integrable == (k >= -1)


def test_classify_mixed_and_zero():
    good = classify(PunctureGerm({-1: 2.0, 3: 1j}))
    assert good.agree and good.integrable
    bad = classify(PunctureGerm({-2: 0.5, 1: 1.0}))
    assert bad.agree and not bad.integrable
    z = classify(PunctureGerm({}))
    assert z.agree and z.integrable and z.bounded and z.simple_pole_or_better


def test_germ_json(tmp_path):
    g = PunctureGerm({-2: 1.0 + 2.0j, 0: -1.0})
    data = germ_to_json(g)
    again = germ_from_json(data)
    assert again.coeffs == g.coeffs
    # re and im are required, as in coefficient files; the malformed tables
    # are tests/test_errors.py's, for both file kinds
    with pytest.raises(ValidationError, match="keys k/re/im"):
        germ_from_json([{"k": 3}])
    p = tmp_path / "g.json"
    p.write_text(json.dumps(data))
    assert load_germ(p).coeffs == g.coeffs
    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    with pytest.raises(ValidationError):
        load_germ(bad)


@pytest.mark.parametrize("value", [[1], None, {"a": 1}, "x"])
@pytest.mark.parametrize("part", ["re", "im"])
def test_germ_json_rejects_non_numeric_coefficients(part, value):
    data = [{"k": 0, "re": 1.0, "im": 0.0}, {"k": -1, "re": 1.0, "im": 0.0}]
    data[1][part] = value
    with pytest.raises(ValidationError, match="entry 1: bad coefficient"):
        germ_from_json(data)


def test_germ_modes_and_floor_are_integers_not_bools():
    with pytest.raises(ValidationError, match="not an integer"):
        PunctureGerm({True: 1.0})
    assert PunctureGerm({np.int64(-1): 1.0}).coeffs == {-1: 1.0}
