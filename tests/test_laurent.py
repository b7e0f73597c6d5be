"""Laurent-mode differentials: closed forms vs quadrature, suprema,
coefficient decay constants, JSON round trips."""

import cmath
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collardiff.collar import (DEFAULT_DELTA0, CollarParams, cos_profile_vec,
                               thin_boundary)
from collardiff.errors import DomainError, ValidationError
from collardiff.laurent import (_ROW_BATCH, DensityRows, LaurentQD,
                                SubCollar, ThinSup, _sorted_unique, _sup_nodes,
                                coefficient_bound_check,
                                coeffs_from_json, coeffs_to_json, eval_density,
                                full_window, l2_inner, l2_norm, linf_thin,
                                load_coeffs, lp_norm, mode_l2_norm_sq,
                                mode_inner_quadrature_ratios, principal_part,
                                remove_principal)
from collardiff.numerics import exp_scale
from conftest import random_collar, random_qd


def test_constructor_policy():
    c = CollarParams(0.5)
    q = LaurentQD(c, {0: 1.0, 3: 0.0, -2: 1j})
    assert sorted(q.coeffs) == [-2, 0]  # exact zeros dropped
    assert q.n_max == 2
    assert principal_part(q) == 1.0
    assert sorted(remove_principal(q).coeffs) == [-2]
    assert LaurentQD(c, {}).is_zero
    with pytest.raises(ValidationError):
        LaurentQD(c, {1.5: 1.0})
    with pytest.raises(ValidationError):
        LaurentQD(c, {1: complex(math.nan, 0)})


def test_mode_indices_are_integers_not_bools():
    c = CollarParams(0.5)
    for n in (True, False, 1.0):
        with pytest.raises(ValidationError, match="mode index"):
            LaurentQD(c, {n: 1.0})
    assert LaurentQD(c, {np.int64(2): 1.0}).coeffs == {2: 1.0}


def test_window_validation():
    c = CollarParams(0.5)
    x = c.half_length
    with pytest.raises(DomainError):
        SubCollar(2.0, 1.0)
    with pytest.raises(DomainError, match="finite"):
        SubCollar(math.nan, 1.0)
    with pytest.raises(DomainError):
        l2_norm(LaurentQD(c, {1: 1.0}), SubCollar(-x, x + 1.0))
    with pytest.raises(DomainError, match="degenerate window"):
        mode_inner_quadrature_ratios(c, [1, 2], SubCollar(1.0, 1.0))
    for p in (0.5, math.inf):
        with pytest.raises(DomainError, match="p must lie"):
            lp_norm(LaurentQD(c, {1: 1.0}), p)


@given(st.integers(-6, 6), st.floats(0.05, 1.3))
def test_mode_norm_closed_vs_quadrature(n, ell):
    c = CollarParams(ell)
    x = c.half_length
    win = SubCollar(-min(x, 30.0), min(x, 25.0))
    q = LaurentQD(c, {n: 1.0})
    closed = math.sqrt(mode_l2_norm_sq(c, n, win))
    quad = lp_norm(q, 2.0, win, tol_abs=1e-13, tol_rel=1e-12)
    assert quad == pytest.approx(closed, rel=1e-9)


def test_l2_pythagoras(rng):
    for _ in range(20):
        c = random_collar(rng)
        q = random_qd(rng, c, n_max=6)
        win = full_window(c)
        by_modes = math.fsum(
            abs(b) ** 2 * mode_l2_norm_sq(c, n, win)
            for n, b in q.coeffs.items())
        assert l2_norm(q) ** 2 == pytest.approx(by_modes, rel=1e-14)


def test_l2_window_additivity(rng):
    c = random_collar(rng)
    q = random_qd(rng, c, n_max=5)
    x = c.half_length
    sm = 0.3 * x
    whole = l2_norm(q, SubCollar(-x, x)) ** 2
    parts = l2_norm(q, SubCollar(-x, sm)) ** 2 + l2_norm(q, SubCollar(sm, x)) ** 2
    assert whole == pytest.approx(parts, rel=1e-12)


def test_inner_product_closed_form(rng):
    c = random_collar(rng)
    q = random_qd(rng, c, n_max=4)
    r = random_qd(rng, c, n_max=4)
    win = full_window(c)
    # sesquilinearity against the polarization of the norm
    lhs = l2_norm(LaurentQD(c, {n: q.coeffs.get(n, 0) + r.coeffs.get(n, 0)
                                for n in set(q.coeffs) | set(r.coeffs)})) ** 2
    rhs = l2_norm(q) ** 2 + l2_norm(r) ** 2 + 2.0 * l2_inner(q, r, win).real
    assert lhs == pytest.approx(rhs, rel=1e-12)
    with pytest.raises(DomainError):
        l2_inner(q, random_qd(rng, CollarParams(c.ell * 0.5), n_max=2))


@pytest.mark.parametrize("n", [1, -1, 3, -5])
def test_l1_single_mode_conformal_invariance(n):
    # L1 of a quadratic differential does not see the metric scale:
    # integral of |b| e^{ns} * 2 over ds dtheta = 4 pi |b| (e^{n s2}-e^{n s1})/n
    for ell in (0.4, 1.1):
        c = CollarParams(ell)
        s1, s2 = -3.0, 2.0
        b = 0.8 - 0.6j
        q = LaurentQD(c, {n: b})
        exact = 4.0 * math.pi * abs(b) * (math.exp(n * s2) - math.exp(n * s1)) / n
        got = lp_norm(q, 1.0, SubCollar(s1, s2))
        assert got == pytest.approx(exact, rel=1e-10)


def test_l1_zero_mode_is_area_times_density():
    c = CollarParams(0.7)
    q = LaurentQD(c, {0: 2.5})
    got = lp_norm(q, 1.0, SubCollar(-4.0, 4.0))
    assert got == pytest.approx(4.0 * math.pi * 2.5 * 8.0, rel=1e-10)


def test_l4_vs_dense_riemann_sum():
    # independent route: tensor-product midpoint rule, no shared code
    c = CollarParams(0.9)
    q = LaurentQD(c, {-1: 0.5, 0: 0.25j, 2: 0.1 - 0.2j})
    s1, s2 = -2.0, 1.5
    ns, nt = 6000, 256
    s = s1 + (np.arange(ns) + 0.5) * (s2 - s1) / ns
    th = (np.arange(nt) + 0.5) * (2.0 * math.pi / nt)
    phi = sum(b * np.exp(n * s)[:, None] * np.exp(1j * n * th)[None, :]
              for n, b in q.coeffs.items())
    rho = c.ell / (2.0 * math.pi * np.cos(c.freq * s))
    dens = np.abs(phi) * (2.0 / rho ** 2)[:, None]
    ref = (np.sum(dens ** 4 * (rho ** 2)[:, None])
           * (s2 - s1) / ns * 2.0 * math.pi / nt) ** 0.25
    got = lp_norm(q, 4.0, SubCollar(s1, s2))
    assert got == pytest.approx(ref, rel=1e-6)


def test_linf_thin_single_mode_endpoint():
    # mode n > 0 peaks at s = x_delta where cos = r; the sample grid
    # contains the endpoint exactly, so sup and envelope coincide
    ell, delta, n = 0.3, 0.35, 2
    c = CollarParams(ell)
    tw = thin_boundary(c, delta)
    b = math.exp(-n * c.half_length) * (0.6 + 0.8j)
    q = LaurentQD(c, {n: b})
    r = math.sinh(0.5 * ell) / math.sinh(delta)
    exact = abs(b) * math.exp(n * tw.x_delta) * 2.0 * (2.0 * math.pi / ell) ** 2 * r * r
    out = linf_thin(q, delta)
    assert out.sup == pytest.approx(exact, rel=1e-11)
    assert out.envelope == pytest.approx(exact, rel=1e-11)
    assert out.s_at == pytest.approx(tw.x_delta)
    # the mirrored mode peaks at the opposite end with the same value
    mirror = linf_thin(LaurentQD(c, {-n: b}), delta)
    assert mirror.sup == pytest.approx(exact, rel=1e-11)
    assert mirror.s_at == pytest.approx(-tw.x_delta)


def test_linf_thin_principal_mode_center():
    ell, delta = 0.2, 0.3
    c = CollarParams(ell)
    q = LaurentQD(c, {0: 1.5j})
    out = linf_thin(q, delta)
    assert out.sup == pytest.approx(1.5 * 8.0 * math.pi ** 2 / ell ** 2, rel=1e-12)
    assert out.s_at == 0.0


def test_linf_thin_empty_and_zero():
    assert linf_thin(LaurentQD(CollarParams(1.0), {1: 1.0}), 0.3).sup == 0.0
    assert linf_thin(LaurentQD(CollarParams(0.1), {}), 0.3).envelope == 0.0


def test_linf_thin_keeps_a_subnormal_sup():
    # a lone principal mode peaks at s = 0, where its density equals the
    # envelope, here subnormal: no 1/n_theta scaling may flush it to 0
    out = linf_thin(LaurentQD(CollarParams(0.7), {0: 3e-322}), 0.5)
    assert out.sup == out.envelope == 4.856e-320


def test_linf_envelope_dominates(rng):
    for _ in range(15):
        c = random_collar(rng, lo=0.05, hi=0.6)
        q = random_qd(rng, c, n_max=5)
        out = linf_thin(q, 0.35)
        assert out.sup <= out.envelope * (1.0 + 1e-12)
        if out.s_at is not None:
            assert eval_density(q, out.s_at, out.theta_at) == pytest.approx(
                out.sup, rel=1e-12)


def test_linf_grid_refinement_stable(rng):
    c = random_collar(rng, lo=0.1, hi=0.5)
    q = random_qd(rng, c, n_max=6)
    coarse = linf_thin(q, 0.35).sup
    # the rule's nodes and 4097 even points: finer than the rule everywhere
    fine = _full_grid_linf_thin(q, 0.35, n_even=4097).sup
    assert coarse <= fine * (1.0 + 1e-12)
    assert fine <= coarse * 1.005


def _even_grid_sup(q, delta, n_s=32769):
    """The density's max over n_s even s-points of the thin part and the
    engine's theta grid, summed mode by mode: no thin-sup node rule."""
    c = q.collar
    xd = thin_boundary(c, delta).x_delta
    n_theta = max(256, 8 * q.n_max)
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    s = np.linspace(-xd, xd, n_s)
    best = -math.inf
    for lo in range(0, n_s, 2048):
        sl = s[lo:lo + 2048]
        phi = sum(b * np.exp(n * sl)[:, None] * np.exp(1j * n * theta)[None, :]
                  for n, b in q.coeffs.items())
        weight = 2.0 * (2.0 * math.pi / c.ell) ** 2 \
            * cos_profile_vec(c, sl) ** 2
        best = max(best, float((np.abs(phi) * weight[:, None]).max()))
    return best


# (ell, delta, a, phase) of b_0 = 1, b_1 = a e^{-X_delta} e^{i phase},
# b_-1 = a e^{-X_delta}: the core's peak of b_0 pref(s) meets the first
# modes' rise toward the edges, and the sup sits between them
_INTERIOR_PANEL = [(1.2, 0.8, 0.5, 3.0), (1.0, 0.7, 1.0, 3.0),
                   (1.2, 0.85, 1.0, 3.0), (1.2, 0.85, 0.5, 3.0),
                   (1.0, 0.6, 0.25, 3.0), (1.2, 0.8, 0.25, 3.0),
                   (1.0, 0.8, 1.0, 3.0), (1.5, 0.8, 0.25, 1.5),
                   (1.0, 0.85, 1.0, 1.5)]


@pytest.mark.parametrize("ell, delta, a, phase", _INTERIOR_PANEL)
def test_linf_thin_finds_interior_maxima(ell, delta, a, phase):
    # away from the edge ladders only the bridge samples s: with a
    # principal part it has 257 points, within 5e-5 of a 32,769-point even
    # grid here, where a 19-point bridge reads up to 9.5e-4 low
    c = CollarParams(ell)
    xd = thin_boundary(c, delta).x_delta
    edge = a * math.exp(-xd)
    q = LaurentQD(c, {0: 1.0, 1: edge * cmath.exp(1j * phase), -1: edge})
    got = linf_thin(q, delta)
    assert abs(got.s_at) < 0.5 * xd
    assert got.sup == pytest.approx(_even_grid_sup(q, delta), rel=5e-5)


@given(x_delta=st.floats(1e-9, 1e6), principal=st.booleans())
@example(x_delta=40.0, principal=True)
@example(x_delta=80.0, principal=False)
@example(x_delta=1e6, principal=True)
@example(x_delta=1e-9, principal=False)
def test_sup_nodes_are_one_rule_for_every_thin_sup(x_delta, principal):
    ns = np.array([-2, 0, 3]) if principal else np.array([1, -1, 2, -2])
    n_bridge = 257 if principal else 19
    s = _sup_nodes(x_delta, ns)
    # ascending and unique, in the thin window, both edges present
    assert np.all(np.diff(s) > 0.0)
    assert s[0] == -x_delta and s[-1] == x_delta
    # mirror-symmetric in value: each node's mirror image lies within the
    # even bridge's rounding of a node (the edge ladders mirror bit for bit)
    miss = np.abs(np.subtract.outer(-s, s)).min(axis=1)
    assert miss.max() <= 8.0 * np.finfo(float).eps * x_delta
    # a ladder below each edge to depth cap = min(x_delta, 40): its
    # deepest rung, a first rung 1e-10 cap deep, 97 rungs in all
    cap = min(x_delta, 40.0)
    for side in (s[s >= 0.0], -s[s <= 0.0]):
        d = np.sort(x_delta - side)
        assert x_delta - cap in side
        assert 0.0 < d[1] <= 1e-10 * cap + 2.0 * np.spacing(x_delta)
        assert np.count_nonzero(d <= cap) >= 97
    # the even bridge bounds every gap, and holds s = 0 where n = 0 is
    assert np.diff(s).max() <= 2.0 * x_delta / (n_bridge - 1) * (1.0 + 1e-9)
    assert not principal or 0.0 in s


@pytest.mark.parametrize("principal", [True, False])
@pytest.mark.parametrize("ell", [1e-307, 6e-308])
def test_sup_nodes_stay_finite_past_half_dbl_max(ell, principal):
    # X_delta > DBL_MAX/2, where x_delta - (-x_delta) overflows
    x_delta = thin_boundary(CollarParams(ell), 0.3).x_delta
    assert x_delta > 0.5 * np.finfo(float).max
    ns = np.array([-2, 0, 3]) if principal else np.array([1, -1, 2, -2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = _sup_nodes(x_delta, ns)
    # the ladder is below x_delta's last bit: both edges and the bridge
    assert np.all(np.isfinite(s)) and np.all(np.diff(s) > 0.0)
    assert s[0] == -x_delta and s[-1] == x_delta
    assert s.size == (257 if principal else 19)
    assert np.all(np.abs(s + s[::-1]) <= 8.0 * np.finfo(float).eps * x_delta)


def _full_grid_linf_thin(q, delta, n_even=0):
    """Reference for laurent.linf_thin: the density on every (s, theta)
    point of the thin-sup nodes (with n_even even points added), then the
    global argmax."""
    tw = thin_boundary(q.collar, delta)
    if tw.empty or q.is_zero:
        return ThinSup(0.0, 0.0)
    n_theta = max(256, 8 * q.n_max)
    c = q.collar
    xd = tw.x_delta
    ns = np.array(sorted(q.coeffs), dtype=float)
    grid = _sorted_unique(np.concatenate([_sup_nodes(xd, ns),
                                          np.linspace(-xd, xd, n_even)]))
    logb = np.array([math.log(abs(q.coeffs[int(n)])) for n in ns])
    phase = np.array([q.coeffs[int(n)] / abs(q.coeffs[int(n)]) for n in ns])
    # exp(log|b| + n s) may overflow at the thin edge, as it does in the
    # engine: the reference's own inf and NaN are expected, not reported
    with np.errstate(over="ignore", invalid="ignore"):
        amp = np.exp(logb[None, :] + ns[None, :] * grid[:, None])
        spec = np.zeros((grid.size, n_theta), dtype=complex)
        for j, col in enumerate(ns.astype(int) % n_theta):
            spec[:, col] += amp[:, j] * phase[j]
        phi = np.fft.ifft(spec, axis=1, norm="forward")
        weight = 2.0 * (2.0 * math.pi / c.ell) ** 2 \
            * cos_profile_vec(c, grid) ** 2
        dens = np.abs(phi) * weight[:, None]
    i, j = divmod(int(np.argmax(dens)), n_theta)
    r = math.sinh(0.5 * c.ell) / math.sinh(delta)
    edge = 2.0 * (2.0 * math.pi / c.ell) ** 2 * r * r
    center = 2.0 * (2.0 * math.pi / c.ell) ** 2
    env = 0.0
    for n, b in q.coeffs.items():
        if n == 0:
            env += abs(b) * center
        else:
            env += exp_scale(abs(b) * edge, abs(n) * xd)
    return ThinSup(float(dens[i, j]), env, float(grid[i]),
                   2.0 * math.pi * j / n_theta)


def test_linf_thin_matches_full_grid_bitwise(transfer_calls):
    rng = np.random.default_rng(7)

    def g():
        return complex(*rng.standard_normal(2))

    nonzero = nan = 0
    for ell in (1e-4, 1e-2, 0.3, 0.9):
        c = CollarParams(ell)
        x = c.half_length
        for delta in (0.05, 0.3, 0.79):
            # the coefficient law g_n e^{-|n|X}; it underflows to an
            # absent mode at small ell, where the tiny lone mode stays
            sets = [{0: g()}, {3: g() * math.exp(-3 * x)},
                    {-3: g() * math.exp(-3 * x)}, {1: 1e-300 * g()},
                    {-1: 1e-300 * g()}]
            sets += [{n: g() * math.exp(-abs(n) * x)
                      for n in range(-n_max, n_max + 1)}
                     for n_max in (1, 5, 32)]
            for coeffs in sets:
                q = LaurentQD(c, coeffs)
                got = linf_thin(q, delta)
                assert repr(got) == repr(_full_grid_linf_thin(q, delta)), \
                    (ell, delta, coeffs)
                nonzero += got.sup > 0.0
                nan += math.isnan(got.sup)
    assert nonzero >= 40 and nan > 0, (nonzero, nan)
    # some finite sup keeps rows beyond the seed: the fallback transforms ran
    assert any(kept and finite for kept, finite in transfer_calls)
    # exp(log|b| + n s) overflows at the thin edge: the NaN sup and its
    # first-NaN location are pinned to the full grid's
    q = LaurentQD(CollarParams(0.01), {1: 1.0, -2: 0.5j})
    got = linf_thin(q, 0.3)
    assert math.isnan(got.sup)
    assert repr(got) == repr(_full_grid_linf_thin(q, 0.3))


def test_linf_thin_transforms_the_row_max_rows_and_one_more(monkeypatch):
    # the sup and its s come from row_max's one pruned pass; only theta
    # needs one more transform, of the row that holds the sup
    real_abs_phi, real_row_max = DensityRows.abs_phi, DensityRows.row_max
    transformed, kept = [], []

    def counting(self, t, s, spec=None):
        transformed.append(t.size)
        return real_abs_phi(self, t, s, spec)

    def recording(self):
        out = real_row_max(self)
        kept.append(int(np.count_nonzero(~np.isneginf(out))))
        return out

    monkeypatch.setattr(DensityRows, "abs_phi", counting)
    monkeypatch.setattr(DensityRows, "row_max", recording)
    rng = np.random.default_rng(13)
    beyond_seed = 0
    for _ in range(40):
        # wide collars and deltas near the bound: narrow thin parts, whose
        # rows compete for the sup (some thin parts are empty)
        c = random_collar(rng, lo=0.3, hi=1.4)
        n_max = int(rng.integers(1, 12))
        coeffs = {n: complex(*rng.standard_normal(2))
                  * math.exp(-abs(n) * c.half_length * rng.uniform(0.5, 1.0))
                  for n in range(-n_max, n_max + 1)}
        transformed.clear()
        kept.clear()
        linf_thin(LaurentQD(c, coeffs), rng.uniform(0.6, 0.79))
        assert sum(transformed) == sum(kept) + len(kept) \
            and len(kept) <= 1, (transformed, kept)
        beyond_seed += sum(kept) > 1
    assert beyond_seed > 0


@pytest.mark.parametrize("ns, n_theta", [
    ([1, -1, 2, -2, 3, -3, 4, -4], 256),   # the sweeps' +-n order
    ([-5, -1, 0, 3], 256),
    ([48, -47, -2, 0, 1, 47], 384)],       # not a power of two
    ids=["sweep-256", "sparse-256", "wide-384"])
def test_density_rows_do_not_depend_on_the_batch(ns, n_theta):
    # the spectrum buffer is reused across batches and filled by bin runs:
    # a row's bits must not depend on which rows share its batch, and must
    # equal a scatter of the products into a fresh zero spectrum; the theta
    # rule is max(256, 8 max|n|)
    ns = np.array(ns)
    rng = np.random.default_rng(n_theta)
    trials, n_s = 3, 70
    coef = rng.standard_normal((trials, ns.size)) \
        + 1j * rng.standard_normal((trials, ns.size))
    s_nodes = np.linspace(-2.0, 2.0, n_s)
    log_scale = -0.5 * np.abs(ns)
    rows = DensityRows(coef, ns, log_scale, s_nodes, np.ones(n_s))
    assert rows.n_theta == n_theta
    t, s = np.divmod(rng.permutation(trials * n_s), n_s)

    amp = np.exp(s_nodes[:, None] * ns[None, :] + log_scale[None, :])
    spec = np.zeros((t.size, n_theta), dtype=complex)
    spec[:, ns % n_theta] = coef[t] * amp[s]
    want = np.fft.ifft(spec, axis=1, norm="forward")
    want = np.abs(want)
    assert np.array_equal(rows.abs_phi(t, s), want)
    assert np.array_equal(np.concatenate(
        [phi for _, _, phi in rows.batches(t, s)]), want)
    for size in (1, 7, _ROW_BATCH):
        buf = np.zeros((size, n_theta), dtype=complex)
        got = np.concatenate([rows.abs_phi(t[lo:lo + size], s[lo:lo + size],
                                           buf)
                              for lo in range(0, t.size, size)])
        assert np.array_equal(got, want), size


@given(data=st.data(), dominant=st.sampled_from([None, "low", "high"]))
def test_transfer_bound_covers_the_computed_row_max(data, dominant):
    # The transfer bound from any seed row, rounding term included, is at
    # least the computed grid max of every other row of the trial, so a row
    # it skips cannot hold the sup.  Each mode's amplitude at the seed row is
    # normal, subnormal or zero; near-duplicate rows leave the rounding term
    # nearly alone against the bound's rho * M_s part.  The theta rule
    # follows the modes: 256 up to |n| = 32, then 8 max|n|.
    ns = np.array(data.draw(st.lists(st.integers(-48, 48), min_size=1,
                                     max_size=10, unique=True)))
    k = ns.size
    seed = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    coef = 10.0 ** seed.uniform(-3.0, 3.0, k) \
        * np.exp(2j * math.pi * seed.uniform(size=k))
    # log-amplitude at the seed row: normal, subnormal or below the subnormals
    at_seed = np.array([seed.uniform(*{"normal": (-30.0, 5.0),
                                       "subnormal": (-744.0, -709.0),
                                       "zero": (-900.0, -746.0)}[kind])
                        for kind in data.draw(st.lists(st.sampled_from(
                            ["normal", "subnormal", "zero"]),
                            min_size=k, max_size=k))])
    if dominant is not None:
        j = np.argmin(ns) if dominant == "low" else np.argmax(ns)
        coef[j] *= 1e6
        at_seed[j] = seed.uniform(-5.0, 5.0)
    s0 = seed.uniform(-5.0, 5.0)
    offsets = np.concatenate([seed.choice([-1.0, 1.0], 3)
                              * 10.0 ** seed.uniform(-10.0, -3.0, 3),
                              seed.uniform(-1.0, 1.0, 3)])
    s_nodes = np.concatenate([[s0], s0 + offsets])
    pref = 10.0 ** seed.uniform(-2.0, 3.0, s_nodes.size)
    rows = DensityRows(coef[None, :], ns, at_seed - s0 * ns, s_nodes, pref)

    zero = np.zeros(1, dtype=int)
    m = rows.abs_phi(zero, zero).max(axis=1)
    others = np.arange(1, s_nodes.size)
    t = np.zeros_like(others)
    row_max = rows.abs_phi(t, others).max(axis=1) * pref[others]
    bound = rows.transfer_bound(t, others, zero, m)
    # NaN and inf bounds keep their rows, so only a finite bound must cover
    assert not np.any(bound < row_max), (bound, row_max)
    full = np.max(rows.abs_phi(np.zeros(s_nodes.size, dtype=int),
                               np.arange(s_nodes.size)).max(axis=1) * pref)
    assert rows.row_max()[0].max() == full


def _per_row_transfer_bound(rows, t, s, top, m):
    """Reference: the transfer bound with the seed row's dominant mode and
    floor_t recomputed for every row, from the (rows, modes) product."""
    c, a0, a1 = np.abs(rows._coef)[t], rows._amp[top[t]], rows._amp[s]
    idx = np.arange(t.size)
    n_modes, n_theta = c.shape[1], rows.n_theta
    kappa = 4.0 * np.finfo(float).eps \
        * (n_modes + 8.0 * math.log2(n_theta) + 8.0)
    with np.errstate(all="ignore"):
        floor = (c.sum(axis=1) + n_theta * (n_modes + n_theta)) \
            * 2.0 ** -1070
        n = np.argmax(c * a0, axis=1)
        rho = a1[idx, n] / a0[idx, n]
        a0 *= rho[:, None]
        a1 -= a0
        np.abs(a1, out=a1)
        corr = np.einsum("ij,ij->i", c, a1)
        rnd = rows.triangle[t, s] + rho * rows.triangle[t, top[t]]
        return rows.pref[s] * (rho * m[t] + corr + kappa * rnd
                               + (1.0 + rho) * floor)


@given(data=st.data(), trials=st.integers(1, 5), poison=st.booleans())
def test_transfer_bound_per_trial_terms_keep_the_per_row_bits(
        data, trials, poison):
    # n* and floor_t are computed once per trial and indexed per row; every
    # bound keeps the bits of the per-row formula, NaN trials included;
    # the theta rule follows the modes (256 up to |n| = 32, then 8 max|n|)
    ns = np.array(data.draw(st.lists(st.integers(-48, 48), min_size=1,
                                     max_size=12, unique=True)))
    k = ns.size
    seed = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    coef = 10.0 ** seed.uniform(-3.0, 3.0, (trials, k)) \
        * np.exp(2j * math.pi * seed.uniform(size=(trials, k)))
    if poison:
        coef[seed.integers(trials), seed.integers(k)] = math.nan
    # per-mode log-amplitudes at s = 0 from normal down to below subnormal
    log_scale = seed.uniform(-900.0, 5.0, k)
    s_nodes = np.sort(seed.uniform(-3.0, 3.0, data.draw(st.integers(2, 12))))
    pref = 10.0 ** seed.uniform(-2.0, 3.0, s_nodes.size)
    rows = DensityRows(coef, ns, log_scale, s_nodes, pref)
    with np.errstate(invalid="ignore"):
        top = np.argmax(rows.triangle * rows.pref, axis=1)
    m = rows.abs_phi(np.arange(trials), top).max(axis=1)
    t, s = np.divmod(seed.permutation(trials * s_nodes.size), s_nodes.size)
    want = _per_row_transfer_bound(rows, t, s, top, m)
    got = rows.transfer_bound(t, s, top, m)
    assert got.tobytes() == want.tobytes()


def test_transfer_bound_by_group_keeps_the_per_row_bits():
    # pairs are grouped by (seed row, n*): two groups share seed row 3 with
    # different n*, two share n* = 2 from different seed rows; one call
    # over the shuffled pairs of all three keeps the per-row formula's bits.
    # n* leads its row by only ~1e3, so the correction sums are not lost
    # against rho * M and a sum rounded in another order shows in the bound
    trials = 9
    ns = np.arange(-24, 25)
    rng = np.random.default_rng(12)
    coef = rng.standard_normal((trials, ns.size)) \
        + 1j * rng.standard_normal((trials, ns.size))
    plan = [(3, 2)] * 3 + [(3, -5)] * 3 + [(17, 2)] * 3
    for t, (_, n) in enumerate(plan):
        coef[t, n + 24] *= 1e3
    s_nodes = np.linspace(-1.0, 1.0, 24)
    rows = DensityRows(coef, ns, -1.5 * np.abs(ns), s_nodes,
                       1.0 + s_nodes ** 2)
    top = np.array([r for r, _ in plan])
    seed_modes = np.argmax(np.abs(rows._coef) * rows._amp[top], axis=1)
    bin_order = ns[np.argsort(np.mod(ns, rows.n_theta))]
    assert [(r, int(bin_order[j])) for r, j in zip(top, seed_modes)] == plan
    m = rows.abs_phi(np.arange(trials), top).max(axis=1)
    t, s = np.divmod(rng.permutation(trials * s_nodes.size), s_nodes.size)
    t, s = t[s != top[t]], s[s != top[t]]
    want = _per_row_transfer_bound(rows, t, s, top, m)
    got = rows.transfer_bound(t, s, top, m)
    assert got.tobytes() == want.tobytes()


@given(data=st.data(), ell=st.floats(0.05, 1.5), delta=st.floats(0.05, 0.79))
def test_linf_thin_matches_full_grid_at_subnormal_scale(data, ell, delta):
    # operations on subnormals round by up to 2^-1075 absolute, far above a
    # relative margin: the triangle test's absolute floor keeps every row
    # that can hold the grid max
    c = CollarParams(ell)
    seed = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    modes = data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5,
                               unique=True))
    coeffs = {n: 10.0 ** seed.uniform(-320.0, -300.0)
              * complex(*seed.standard_normal(2)) for n in modes}
    q = LaurentQD(c, coeffs)
    assert repr(linf_thin(q, delta)) == repr(_full_grid_linf_thin(q, delta))


def test_sorted_unique_is_np_unique():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.standard_normal(50), rng.standard_normal(50),
                        [0.0, -0.0, 0.0, 1.0, 1.0]])
    rng.shuffle(x)
    for arr in (x, x[:1], x[:0], np.array([-0.0, 0.0])):
        got, want = _sorted_unique(arr), np.unique(arr)
        assert got.tobytes() == want.tobytes() and got.dtype == want.dtype


def test_coefficient_bound_check():
    c = CollarParams(0.2)
    x = c.half_length
    coeffs = {n: 3.0 * math.exp(-abs(n) * x) for n in (-3, -1, 1, 2)}
    rep = coefficient_bound_check(LaurentQD(c, coeffs))
    # after thick-norm normalization the constants are scale free
    rep2 = coefficient_bound_check(LaurentQD(c, {n: 7 * b for n, b in coeffs.items()}))
    assert rep.constant == pytest.approx(rep2.constant, rel=1e-12)
    assert set(rep.per_mode) == set(coeffs)
    assert 0 < rep.constant < math.inf
    with pytest.raises(DomainError):
        coefficient_bound_check(LaurentQD(c, {0: 1.0, 1: 1.0}))
    empty = coefficient_bound_check(LaurentQD(c, {}))
    assert empty.constant == 0.0 and empty.thick_norm == 0.0


@pytest.mark.parametrize("ell", [1e-8, 1e-50, 1e-150])
def test_coefficient_bound_check_on_a_zero_thick_norm(ell):
    # the kernel's cancellation leaves the thick norm at 0 here: the
    # constants are unknown (NaN), not a division by zero
    rep = coefficient_bound_check(LaurentQD(CollarParams(ell),
                                            {1: 1.0, -2: 0.5j}))
    assert rep.thick_norm == 0.0
    assert math.isnan(rep.constant)
    assert set(rep.per_mode) == {1, -2}
    assert all(math.isnan(v) for v in rep.per_mode.values())


@pytest.mark.parametrize("ell, rel", [(0.02, 1e-12), (1e-3, 2e-9),
                                      (1e-4, 2e-9)])
def test_coefficient_bound_check_past_an_overflowing_thick_norm(ell, rel):
    # e^{|n|X} and the thick norm overflow, while each constant, their
    # ratio, is finite: a 60-digit reference on the package's windows
    from reference import mode_norm_sq, mpmath, mp
    c = CollarParams(ell)
    x, xd = c.half_length, thin_boundary(c, DEFAULT_DELTA0).x_delta
    coeffs = {1: 1.0, -2: 0.5j}
    rep = coefficient_bound_check(LaurentQD(c, coeffs))
    with mpmath.workdps(60):
        thick = mp.sqrt(sum(abs(b) ** 2 * (mode_norm_sq(ell, n, xd, x)
                                           + mode_norm_sq(ell, n, -x, -xd))
                            for n, b in coeffs.items()))
        want = {n: float(abs(b) * mp.exp(abs(n) * mp.mpf(x))
                         / (mp.sqrt(abs(n)) * thick))
                for n, b in coeffs.items()}
    assert rep.thick_norm == math.inf
    assert rep.per_mode == pytest.approx(want, rel=rel, abs=0.0)
    assert rep.constant == max(rep.per_mode.values())


@pytest.mark.parametrize("ell", [1e-162, 1e-170, 1e-200])
def test_eval_density_where_rho_squared_underflows(ell):
    # rho(0)^2 = (ell/2 pi)^2 underflows to 0, so 2 / rho^2 is +inf
    c = CollarParams(ell)
    assert eval_density(LaurentQD(c, {1: 1.0, 0: 0.5j}), 0.0, 0.0) \
        == math.inf
    assert eval_density(LaurentQD(c, {}), 0.0, 0.0) == 0.0


def test_l2_norm_keeps_a_mode_whose_square_underflows():
    # |b_1|^2 ~ 1e-395 is below the double range, but the mode's coordinate
    # b_1 ||e^{w} dw^2|| ~ 2.5e231 is not, and it carries the norm
    from reference import l2_norm as mp_l2_norm
    c = CollarParams(0.01)
    x = c.half_length
    coeffs = {0: -0.5439577217873256 - 0.13345155853725454j,
              1: -7.343541300402361e-198 - 7.15253263672712e-198j}
    got = l2_norm(LaurentQD(c, coeffs))
    assert got == pytest.approx(2.47071711417e231, rel=1e-11)
    assert got == pytest.approx(mp_l2_norm(c.ell, coeffs, [(-x, x)]),
                                rel=1e-12)


@pytest.mark.parametrize("b", [3e-320, 5.52874e-319 - 3.6167e-319j])
def test_l2_norm_of_a_subnormal_coefficient(b):
    # b_30 ||e^{30w} dw^2|| ~ 1e-100 is normal, while b_30 times the
    # anchored weight is subnormal and would keep only its few digits
    from reference import l2_norm as mp_l2_norm
    c = CollarParams(0.5)
    x = c.half_length
    got = l2_norm(LaurentQD(c, {30: b}))
    assert got == pytest.approx(mp_l2_norm(c.ell, {30: b}, [(-x, x)]),
                                rel=1e-12, abs=0.0)


@settings(max_examples=140, derandomize=True, deadline=None)
@given(ell=st.floats(0.01, 1.7), u=st.floats(0.5, 1.0),
       modes=st.lists(st.integers(-6, 6).filter(bool), min_size=1,
                      max_size=4, unique=True),
       phase=st.floats(0.0, 2.0 * math.pi))
def test_coefficient_bound_check_on_law_scaled_coefficients(ell, u, modes,
                                                            phase):
    # |b_n| = e^{-u|n|X}: every |b_n|^2 can underflow while b_n and the
    # thick norm stay in range; the thick norm is never 0 for nonzero input
    from reference import l2_norm as mp_l2_norm
    c = CollarParams(ell)
    x = c.half_length
    q = LaurentQD(c, {n: cmath.rect(math.exp(-u * abs(n) * x), n * phase)
                      for n in modes})
    rep = coefficient_bound_check(q)
    xd = thin_boundary(c, DEFAULT_DELTA0).x_delta
    thick = [(xd, x), (-x, -xd)] if xd else [(-x, x)]
    assert rep.thick_norm == pytest.approx(mp_l2_norm(ell, q.coeffs, thick),
                                           rel=1e-10, abs=0.0)
    assert set(rep.per_mode) == set(q.coeffs)
    assert (rep.thick_norm > 0) == (not q.is_zero)


def test_mode_orthogonality_small():
    c = CollarParams(0.6)
    win = SubCollar(-8.0, 5.0)
    ratios = mode_inner_quadrature_ratios(c, range(-2, 3), win)
    assert np.allclose(np.diag(ratios), 1.0, rtol=1e-11)
    off = ratios - np.diag(np.diag(ratios))
    assert np.max(np.abs(off)) < 1e-10


def test_coeffs_json_round_trip(tmp_path):
    coeffs = {-2: 1.5 - 0.5j, 0: 2.0 + 0j, 3: 0.25j}
    data = coeffs_to_json(coeffs)
    assert coeffs_from_json(data) == coeffs
    p = tmp_path / "c.json"
    p.write_text(json.dumps(data))
    assert load_coeffs(p) == coeffs


def test_coeffs_json_rejects_bad_input(tmp_path):
    # the malformed tables are tests/test_errors.py's, for both file kinds
    with pytest.raises(ValidationError, match="keys n/re/im"):
        coeffs_from_json([{"n": 1, "re": 0.0}])
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValidationError):
        load_coeffs(bad)
