"""Sweep engine: seeding, determinism, closed-form anchors, and the
independent-quadrature cross checks of the scaled-coefficient cells."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from collardiff.collar import CollarParams, cos_profile_vec, thin_boundary
from collardiff.errors import MODE_MAX, DomainError, ValidationError
from collardiff.laurent import (DensityRows, LaurentQD, SubCollar,
                                _norm_const, _sup_nodes, _thick_windows,
                                density_weight, l2_norm, linf_thin, lp_norm,
                                mode_l2_norm_sq)
from collardiff.numerics import exp_cos2_window, exp_scale
from collardiff.report import STATUS_EMPTY, STATUS_FAILED, STATUS_OK
from collardiff.sweeps import (PRINCIPAL_MASS_CONSTANT, SweepConfig,
                               bij_normalization_check, decay_sweep,
                               draw_coefficients, interleaved_modes,
                               lp_vanishing_sweep, principal_mass_sweep)
import collardiff.sweeps as sweeps

# mpmath mp.dps=60 anchors for the principal-mode masses
M0_SCALED_THIN_0001_04 = 9792.6299056325103   # ell^3 * thin mass, (1e-3, 0.4)
M0_THIN_01_02 = 9727674.2370222428            # thin mass, (0.1, 0.2)
M0_FULL_01 = 9792111.3058505275               # full-collar mass, ell = 0.1

SMALL = dict(ell_grid=(0.4, 0.7), delta_grid=(0.35, 0.5),
             n_max=4, trials=3, seed=11)


def test_config_validation():
    SweepConfig(**SMALL)
    with pytest.raises(ValidationError):
        SweepConfig(ell_grid=())
    with pytest.raises(ValidationError):
        SweepConfig(ell_grid=(0.5, 0.4))
    with pytest.raises(ValidationError):
        SweepConfig(ell_grid=(0.5, 3.0))
    with pytest.raises(ValidationError):
        SweepConfig(delta_grid=(0.9,))
    # X and X_delta0 are ~1e17 here; their gap is ~4.5, not cancelled to 0
    SweepConfig(ell_grid=(1e-16,), delta_grid=(0.3,), n_max=2, trials=1)
    with pytest.raises(ValidationError):
        SweepConfig(n_max=0)
    SweepConfig(n_max=MODE_MAX)   # validates only; draws nothing
    with pytest.raises(ValidationError, match=f"in \\[1, {MODE_MAX}\\]"):
        SweepConfig(n_max=MODE_MAX + 1)
    with pytest.raises(ValidationError):
        SweepConfig(trials=-1)
    with pytest.raises(ValidationError):
        SweepConfig(seed=-1)
    with pytest.raises(ValidationError):
        SweepConfig(seed=2 ** 64)
    with pytest.raises(DomainError):
        SweepConfig(delta0=0.75)  # thick-gap constraint fails as ell -> 0


@pytest.mark.parametrize("field", ["n_max", "trials", "seed"])
@pytest.mark.parametrize("value", [True, 2.0, np.int64(2)])
def test_config_counts_are_python_ints(field, value):
    # a bool is not a count, and the seed words are hashed as Python ints
    with pytest.raises(ValidationError):
        SweepConfig(**{**SMALL, field: value})


def test_interleaved_modes_and_draw_prefix():
    assert list(interleaved_modes(3)) == [1, -1, 2, -2, 3, -3]
    assert list(interleaved_modes(8)[:6]) == list(interleaved_modes(3))
    d4 = draw_coefficients(9, 1, 2, 5, 4)
    d8 = draw_coefficients(9, 1, 2, 5, 8)
    assert d4.shape == (5, 4) and d8.shape == (5, 8)
    assert np.array_equal(d8[:, :4], d4)
    # distinct cells and trials get distinct streams
    assert not np.array_equal(d4[4], d4[3])
    assert not np.array_equal(draw_coefficients(9, 0, 2, 5, 4)[3], d4[3])


def test_decay_sweep_shape_and_statuses():
    cfg = SweepConfig(**SMALL)
    rep = decay_sweep(cfg)
    rows = rep.values("linf_ratio")
    # (0.7, 0.35) is empty (sinh(0.35)/sinh(0.35) = 1): one row, not trials
    empty = [r for r in rows if r.status == STATUS_EMPTY]
    ok = [r for r in rows if r.status == STATUS_OK]
    assert len(empty) == 1 and empty[0].ell == 0.7 and empty[0].delta == 0.35
    assert len(ok) == 3 * cfg.trials
    for r in ok:
        assert r.value > 0.0
        assert r.normalized == pytest.approx(
            r.value * r.delta ** 2 * math.exp(math.pi / r.delta), rel=1e-12)
    summary = rep.single("max_normalized")
    assert summary.normalized == max(r.normalized for r in ok)
    assert (summary.ell, summary.delta) in {(r.ell, r.delta) for r in ok}


def test_decay_summary_skips_nan_normalized_rows():
    # at delta 0.001 the sup underflows to 0 and delta^2 e^{pi/delta} is
    # inf: 0 * inf is NaN, so those rows are non-converged, and the
    # summary is the best of the delta 0.1 rows
    rep = decay_sweep(SweepConfig(ell_grid=(1e-3,), delta_grid=(1e-3, 0.1),
                                  n_max=8, trials=2))
    rows = rep.values("linf_ratio")
    tiny = [r for r in rows if r.delta == 1e-3]
    assert len(tiny) == 2
    assert all(math.isnan(r.normalized) and r.status == STATUS_FAILED
               for r in tiny)
    summary = rep.single("max_normalized")
    assert summary.status == STATUS_OK and summary.delta == 0.1
    assert summary.normalized == max(r.normalized for r in rows
                                     if r.delta == 0.1)


def test_decay_sweep_deterministic_across_workers():
    cfg = SweepConfig(**SMALL)
    rep1 = decay_sweep(cfg, workers=1)
    rep8 = decay_sweep(cfg, workers=8)
    assert rep1.rows == rep8.rows
    assert rep1.to_csv() == rep8.to_csv()


def test_decay_summary_monotone_in_trials():
    base = dict(SMALL)
    lo = decay_sweep(SweepConfig(**{**base, "trials": 2}))
    hi = decay_sweep(SweepConfig(**{**base, "trials": 5}))
    # trial draws are seeded per trial index, so more trials = superset
    assert hi.single("max_normalized").normalized >= \
        lo.single("max_normalized").normalized


def test_cell_against_unscaled_laurent_oracle():
    # Rebuild one cell's trials as literal LaurentQD objects (raw
    # coefficients g_n e^{-|n|X} are representable at ell = 0.5, and at
    # ell = 0.05, X ~ 194, for n_max 3) and compare every statistic against
    # the laurent-module routes: lp_norm goes through the metric, so it
    # checks the metric-free p = 1 tile
    for ell, deltas, n_max in ((0.5, (0.45,), 4), (0.05, (0.3, 0.7), 3)):
        _check_cells_against_laurent(ell, deltas, n_max)


def _check_cells_against_laurent(ell, deltas, n_max):
    delta0, trials, seed = 0.4, 3, 123
    cfg = SweepConfig(ell_grid=(ell,), delta_grid=deltas, delta0=delta0,
                      n_max=n_max, trials=trials, seed=seed)
    c = CollarParams(ell)
    x = c.half_length
    xd0 = thin_boundary(c, delta0).x_delta
    ns = interleaved_modes(n_max)
    lp = lp_vanishing_sweep(cfg)
    for di, delta in enumerate(deltas):
        units = []
        for g in draw_coefficients(seed, 0, di, trials, ns.size):
            raw = {int(n): g[i] * math.exp(-abs(int(n)) * x)
                   for i, n in enumerate(ns)}
            q = LaurentQD(c, raw)
            thick = math.sqrt(l2_norm(q, SubCollar(xd0, x)) ** 2
                              + l2_norm(q, SubCollar(-x, -xd0)) ** 2)
            units.append(LaurentQD(c, {n: b / thick for n, b in raw.items()}))
        xd = thin_boundary(c, delta).x_delta
        thin = SubCollar(-xd, xd)
        for trial, q in enumerate(units):
            row = di * trials + trial
            p2 = lp.values("lp_ratio_p2")[row].value
            assert p2 == pytest.approx(l2_norm(q, thin), rel=1e-12)
            p1 = lp.values("lp_ratio_p1")[row].value
            assert p1 == pytest.approx(
                lp_norm(q, 1.0, thin, tol_abs=1e-13, tol_rel=1e-11), rel=1e-8)
            p4 = lp.values("lp_ratio_p4")[row].value
            assert p4 == pytest.approx(
                lp_norm(q, 4.0, thin, tol_abs=1e-13, tol_rel=1e-11), rel=1e-8)


def _cell_values(cfg, li, di, ps) -> dict:
    """Per-trial values of sweeps._lp_cell for each p of ps, as arrays."""
    stats = {p: sweeps._LP_STATS[p] for p in ps}
    rows = sweeps._lp_cell(cfg, li, di, stats)
    return {p: np.array([r.value for r in rows if r.statistic == name])
            for p, (name, _) in stats.items()}


def _full_grid_density_max(Gt, ns, c, s_nodes, n_theta):
    """Reference for the sweeps' p = inf column: transform every (trial,
    s) row."""
    X = c.half_length
    pref = 2.0 * (2.0 * math.pi / c.ell) ** 2 \
        * cos_profile_vec(c, s_nodes) ** 2
    bins = np.mod(ns, n_theta)
    out = np.zeros(Gt.shape[0])
    for lo in range(0, s_nodes.size, 48):
        sl = slice(lo, min(lo + 48, s_nodes.size))
        amp = np.exp(s_nodes[sl][:, None] * ns[None, :]
                     - np.abs(ns)[None, :] * X)          # (chunk, modes)
        F = np.zeros((Gt.shape[0], amp.shape[0], n_theta), dtype=complex)
        F[:, :, bins] = Gt[:, None, :] * amp[None, :, :]
        phi = np.fft.ifft(F, axis=2, norm="forward")
        dens = np.abs(phi) * pref[sl][None, :, None]
        np.maximum(out, dens.max(axis=(1, 2)), out=out)
    return out


def test_lp_pinf_is_linf_thin_of_the_trial():
    # the two callers of the one thin-sup row builder: a trial's
    # lp_ratio_pinf is linf_thin of its differential b_n = g_n e^{-|n|X}
    # (ell >= 0.3 and n_max <= 4 keep every b_n representable); linf_thin
    # forms |b_n| e^{ns} as e^{ns + log|b_n|}, so only rounding separates them
    cfg = SweepConfig(ell_grid=(0.3, 0.7, 1.2), delta_grid=(0.3, 0.6, 0.79),
                      n_max=4, trials=8, seed=3)
    ns = interleaved_modes(cfg.n_max)
    checked = 0
    for li, ell in enumerate(cfg.ell_grid):
        c = CollarParams(ell)
        for di, delta in enumerate(cfg.delta_grid):
            if thin_boundary(c, delta).empty:
                continue
            Gt = sweeps._normalized_draws(cfg, c, li, di, ns)
            pinf = _cell_values(cfg, li, di, (math.inf,))[math.inf]
            for g, want in zip(Gt, pinf):
                q = LaurentQD(c, {int(n): complex(b) * math.exp(
                    -abs(n) * c.half_length) for n, b in zip(ns, g)})
                assert linf_thin(q, delta).sup == pytest.approx(
                    want, rel=1e-12, abs=0.0), (ell, delta)
                checked += 1
    assert checked == 48, checked   # 6 nonempty cells


@pytest.mark.parametrize("n_max", [1, 13, 48])
def test_pruned_density_max_matches_full_grid_bitwise(n_max, transfer_calls):
    # n_theta = 256 for n_max 1 and 13, 384 (not a power of two) for 48
    cfg = SweepConfig(ell_grid=(1e-4, 1e-2, 0.3, 0.9),
                      delta_grid=(0.05, 0.3, 0.79), n_max=n_max, trials=24,
                      seed=5)
    ns = interleaved_modes(n_max)
    n_theta = max(256, 8 * n_max)
    checked = 0
    for li, ell in enumerate(cfg.ell_grid):
        c = CollarParams(ell)
        for di, delta in enumerate(cfg.delta_grid):
            win = thin_boundary(c, delta)
            if win.empty:
                continue
            Gt = sweeps._normalized_draws(cfg, c, li, di, ns)
            s_nodes = _sup_nodes(win.x_delta, ns)
            want = _full_grid_density_max(Gt, ns, c, s_nodes, n_theta)
            got = _cell_values(cfg, li, di, (math.inf,))[math.inf]
            assert got.tobytes() == want.tobytes(), (ell, delta)
            checked += 1
    assert checked == 9
    # with more than one mode pair some cell keeps rows beyond the seeds
    # (finite maxima), so the fallback transforms ran
    assert n_max == 1 or any(kept and finite
                             for kept, finite in transfer_calls)


def test_row_max_is_neg_inf_exactly_on_skipped_rows_full_grid(monkeypatch):
    # row_max holds the full grid's row max, bit for bit, on every row it
    # transforms and -inf on every row it skips; each trial's max over the
    # matrix is the full-grid density max
    seen = []
    real = DensityRows.abs_phi

    def recording(self, t, s, spec=None):
        seen.append((t.copy(), s.copy()))
        return real(self, t, s, spec)

    cfg = SweepConfig(ell_grid=(1e-4, 0.3), delta_grid=(0.3, 0.79),
                      n_max=13, trials=24, seed=5)
    ns = interleaved_modes(cfg.n_max)
    skipped = beyond_seed = 0
    for li, ell in enumerate(cfg.ell_grid):
        c = CollarParams(ell)
        for di, delta in enumerate(cfg.delta_grid):
            win = thin_boundary(c, delta)
            Gt = sweeps._normalized_draws(cfg, c, li, di, ns)
            s_nodes = _sup_nodes(win.x_delta, ns)
            pref = 2.0 * (2.0 * math.pi / c.ell) ** 2 \
                * cos_profile_vec(c, s_nodes) ** 2
            rows = DensityRows(Gt, ns, -np.abs(ns) * c.half_length, s_nodes,
                               pref)
            seen.clear()
            with monkeypatch.context() as m:
                m.setattr(DensityRows, "abs_phi", recording)
                got = rows.row_max()
            hit = np.zeros(got.shape, dtype=bool)
            for t, s in seen:
                hit[t, s] = True
            assert np.array_equal(np.isneginf(got), ~hit), (ell, delta)
            t, s = np.divmod(np.arange(got.size), got.shape[1])
            full = (rows.abs_phi(t, s).max(axis=1) * pref[s]) \
                .reshape(got.shape)
            assert got[hit].tobytes() == full[hit].tobytes()
            want = _full_grid_density_max(Gt, ns, c, s_nodes, 256)
            assert got.max(axis=1).tobytes() == want.tobytes()
            skipped += np.count_nonzero(~hit)
            beyond_seed += np.count_nonzero(hit) > cfg.trials
    assert skipped > 0 and beyond_seed > 0


@given(data=st.data(), n_max=st.integers(1, 4),
       ell=st.floats(1e-3, 1.5), delta=st.floats(0.05, 0.79))
def test_pruned_density_max_matches_full_grid_at_subnormal_scale(
        data, n_max, ell, delta):
    # the sup nodes cluster within 1e-10 of the thin edges, so near-equal
    # rows compete for the max; at subnormal scale their computed densities
    # differ by absolute roundings that only the triangle test's absolute
    # floor covers
    c = CollarParams(ell)
    win = thin_boundary(c, delta)
    assume(not win.empty)
    seed = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    ns = interleaved_modes(n_max)
    Gt = (seed.standard_normal((4, ns.size))
          + 1j * seed.standard_normal((4, ns.size))) \
        * 10.0 ** seed.uniform(-320.0, -300.0, (4, 1))
    s_nodes = _sup_nodes(win.x_delta, ns)
    want = _full_grid_density_max(Gt, ns, c, s_nodes, 256)
    got = DensityRows(Gt, ns, -np.abs(ns) * c.half_length, s_nodes,
                      density_weight(c, s_nodes)).row_max().max(axis=1)
    assert got.tobytes() == want.tobytes()


def _count_transforms(monkeypatch) -> list:
    """A one-item list counting the rows that DensityRows transforms."""
    count = [0]
    real = DensityRows.abs_phi

    def counting(self, t, s, spec=None):
        count[0] += t.size
        return real(self, t, s, spec)

    monkeypatch.setattr(DensityRows, "abs_phi", counting)
    return count


def test_decay_round_transforms_one_row_per_trial(monkeypatch):
    # the benchmark's decay round at seed 0 (256 nonempty trials): the
    # triangle bound alone leaves 5043 rows to transform, the transfer
    # bound from each trial's seed row leaves the seeds and few others
    transformed = _count_transforms(monkeypatch)
    for n_max in (32, 64):
        decay_sweep(SweepConfig(ell_grid=(1e-4, 1e-2, 1.0), delta_grid=(0.3,),
                                n_max=n_max, trials=64, seed=0))
    assert 256 <= transformed[0] <= 300, transformed


def _tile(c, x_delta, n_max):
    """The s-nodes and weights of sweeps._lp_cell's finite-p tile, and
    rho^2 at the nodes."""
    s_nodes, w_nodes = sweeps._tile_nodes(x_delta, c.half_length - x_delta,
                                          n_max)
    rho_sq = (c.ell / (2.0 * math.pi)) ** 2 \
        / cos_profile_vec(c, s_nodes) ** 2
    return s_nodes, w_nodes, rho_sq


def _full_tile_lp(Gt, ns, c, x_delta, n_theta, finite):
    """Reference for the finite-p path of sweeps._lp_cell: transform every
    (trial, s) row of the tile, 48 s-nodes at a time, and sum dens ** p
    rho^2, which is 2|phi| for p = 1."""
    s_nodes, w_nodes, rho_sq = _tile(c, x_delta, int(np.abs(ns).max()))
    X = c.half_length
    pref = 2.0 / rho_sq
    bins = np.mod(ns, n_theta)
    acc = {p: np.zeros(Gt.shape[0]) for p in finite}
    for lo in range(0, s_nodes.size, 48):
        sl = slice(lo, min(lo + 48, s_nodes.size))
        amp = np.exp(s_nodes[sl][:, None] * ns[None, :]
                     - np.abs(ns)[None, :] * X)
        # a short last chunk is padded with zero rows to 48, as
        # sweeps._row_dots pads its blocks: gemv can round the rows of a
        # short remainder group differently
        F = np.zeros((Gt.shape[0], 48, n_theta), dtype=complex)
        F[:, :amp.shape[0], bins] = Gt[:, None, :] * amp[None, :, :]
        phi_abs = np.abs(np.fft.ifft(F, axis=2, norm="forward"))
        for p in finite:
            if p == 1.0:
                terms, w_s = 2.0 * phi_abs, w_nodes[sl]
            else:
                terms = (phi_abs[:, :amp.shape[0]]
                         * pref[sl][None, :, None]) ** p
                w_s = rho_sq[sl] * w_nodes[sl]
            contrib = terms @ np.full(n_theta, 2.0 * math.pi / n_theta)
            acc[p] += (contrib[:, :w_s.size] * w_s[None, :]).sum(axis=1)
    # the triangle bound of every row, to show that the zero-row skip ran
    bound = (np.abs(Gt) @ np.exp(s_nodes[:, None] * ns[None, :]
                                 - np.abs(ns)[None, :] * X).T) * pref
    return {p: acc[p] ** (1.0 / p) for p in finite}, bound


@pytest.mark.parametrize("n_max", [1, 13, 48])
def test_lp_tile_matches_full_tile_bitwise(n_max, monkeypatch):
    # n_theta = 256 for n_max 1 and 13, 384 (not a power of two) for 48.
    # p = 1 is the tile's, bit for bit, though the tile skips both the
    # rows whose every term underflowed and the rows below 2^-80 of the
    # seed row's term (at ell 0.1, delta 0.3 rows fall on both sides).
    # p = 4 comes by Parseval, with no tile; the full tile's pow sums
    # round s n - |n| X at |s n| ~ 5e6 and sit up to 2.1e-12 off (ell
    # 1e-4, delta 0.79)
    cfgs = [SweepConfig(ell_grid=(1e-4, 1e-2, 0.3, 0.9),
                        delta_grid=(0.05, 0.3, 0.79), n_max=n_max, trials=24,
                        seed=5),
            SweepConfig(ell_grid=(0.1,), delta_grid=(0.3,), n_max=n_max,
                        trials=24, seed=5)]
    ns = interleaved_modes(n_max)
    n_theta = max(256, 8 * n_max)
    transformed = _count_transforms(monkeypatch)
    checked = zero_rows = nonzero_rows = 0
    for cfg, li, di in [(cfg, li, di) for cfg in cfgs
                        for li in range(len(cfg.ell_grid))
                        for di in range(len(cfg.delta_grid))]:
        ell, delta = cfg.ell_grid[li], cfg.delta_grid[di]
        c = CollarParams(ell)
        win = thin_boundary(c, delta)
        if win.empty:
            continue
        Gt = sweeps._normalized_draws(cfg, c, li, di, ns)
        want, bound = _full_tile_lp(Gt, ns, c, win.x_delta, n_theta,
                                    (1.0, 4.0))
        got = _cell_values(cfg, li, di, (1.0, 4.0))
        assert got[1.0].tobytes() == want[1.0].tobytes(), (ell, delta)
        # atol 0: an exact zero stays an exact zero
        np.testing.assert_allclose(got[4.0], want[4.0], rtol=1e-11,
                                   atol=0.0, err_msg=str((ell, delta)))
        zero_rows += np.count_nonzero(bound == 0.0)
        nonzero_rows += np.count_nonzero(bound != 0.0)
        checked += 1
    assert checked == 10
    # the p = 1 skips ran: rows whose every term underflowed, and rows
    # with a nonzero bound below the seed's threshold
    assert zero_rows > 0, zero_rows
    assert transformed[0] < nonzero_rows, (transformed, nonzero_rows)


@given(x_delta=st.floats(1e-9, 1e6), n_max=st.integers(1, MODE_MAX),
       u_delta=st.floats(0.0, 1e3))
@example(x_delta=40.0, n_max=625, u_delta=0.0)
@example(x_delta=sweeps._EDGE_DEPTH * 2.5, n_max=MODE_MAX, u_delta=0.0)
@example(x_delta=1e-3, n_max=32, u_delta=0.0)
@example(x_delta=1e6, n_max=MODE_MAX, u_delta=0.0)
def test_tile_nodes_are_one_gauss_rule_per_edge(x_delta, n_max, u_delta):
    s, w = sweeps._tile_nodes(x_delta, u_delta, n_max)
    # ascending, strictly inside the thin window, mirror-symmetric bit for
    # bit with equal weights
    assert np.all(np.diff(s) > 0.0) and -x_delta < s[0] and s[-1] < x_delta
    assert np.array_equal(s, -s[::-1]) and np.array_equal(w, w[::-1])
    # positive weights that sum to the window's length
    assert np.all(w > 0.0)
    assert math.isclose(math.fsum(w), 2.0 * x_delta, rel_tol=1e-14)
    # the modes within 2^-53 of the first at the thin edge, e^{-n u_delta}
    n_eff = (n_max if n_max * u_delta <= 37.0
             else math.ceil(37.0 / u_delta))
    cap = min(0.5 * x_delta, sweeps._EDGE_DEPTH)
    d, w_edge = sweeps._edge_rule(cap, n_eff)
    assert d.size == 24 + math.ceil(math.sqrt(8 * n_eff))
    assert np.array_equal(w[-d.size:], w_edge[::-1])
    assert np.all((0.0 < d) & (d < cap))
    # the edge rule integrates 1 and every e^{-nd}, n <= n_eff, over
    # [0, cap]: its nodes are eigenvalues good to ~eps absolute, which
    # moves e^{-nd} by ~n eps relative, and at a 40-deep cap the e^{-d}
    # moment is cap (1 - alpha_0) of the recurrence (4e-14 worst)
    n = np.arange(n_eff + 1)
    exact = np.where(n == 0, cap, -np.expm1(-n * cap) / np.maximum(n, 1))
    err = np.abs(np.exp(-np.outer(n, d)) @ w_edge / exact - 1.0)
    assert np.all(err <= 6e-14 + 5e-16 * n), (err.max(), err.argmax())


# geometric panel cuts below each thin edge, as fractions of the covered
# depth: the refined reference's, independent of the tile's node rule
_PANEL_FRACTIONS = (0.0, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.15, 0.35, 0.65, 1.0)


def _refined_tile(x_delta):
    """Gauss-Legendre s-nodes and weights with every panel of the
    _PANEL_FRACTIONS cut set split 6 times at 24 points: on the tile's
    theta grid, within 5e-13 of a 12 x 32 split at delta 0.3."""
    cap = min(x_delta, sweeps._EDGE_DEPTH)
    right = x_delta - cap * np.array(_PANEL_FRACTIONS)
    inner = x_delta - cap
    cuts = np.unique(np.concatenate([-right, right,
                                     np.linspace(-inner, inner, 9)]))
    edges = np.concatenate([np.linspace(a, b, 7)[:-1]
                            for a, b in zip(cuts[:-1], cuts[1:])]
                           + [[x_delta]])
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(24)
    mid, hw = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    return ((mid[:, None] + hw[:, None] * gl_nodes).ravel(),
            (hw[:, None] * gl_weights).ravel())


# README's bounds on the tile's s-quadrature error: (largest delta, p = 1,
# p = 4), and near the thin part's empty threshold (x_delta <= 0.2).
# Where two modes balance, phi nearly vanishes at some grid theta and the
# theta sum of |phi| has near-kinks in s (delta >= 0.4, or near the empty
# threshold); p = 4 carries pref^3, smooth in the depth ln(1/t) but not
# in t, so no t-polynomial rule integrates it exactly.  The p = 4 bound at delta <=
# 0.3 is 3x the 6.4e-12 measured over 192 trials; the panel rule's 2e-10
# fails it
_TILE_ERROR = ((0.3, 5e-12, 2e-11), (0.6, 2e-6, 1e-10), (0.9, 3e-5, 3e-10))
_EMPTY_EDGE_ERROR = (0.2, 2e-7, 1e-14)


@pytest.mark.parametrize("ell, delta, n_max", [
    (1e-4, 0.3, 32), (1e-2, 0.3, 32), (0.3, 0.6, 8), (1e-2, 0.86, 8),
    (1e-4, 0.88, 512), (1e-2, 0.88, 128), (0.05, 0.025000025, 8),
    (0.6, 0.6, 32)])
def test_lp_tile_panels_hold_a_refined_reference(ell, delta, n_max):
    # the sweep's p = 1 and 4 on the tile's nodes against the same
    # theta-grid sums on the refined nodes; a fixed 24-point edge rule
    # fails p = 4 at delta 0.3 and past 1e-4 at delta 0.88, n_max >= 128
    cfg = SweepConfig(ell_grid=(ell,), delta_grid=(delta,), n_max=n_max,
                      trials=4, seed=3)
    c = CollarParams(ell)
    ns = interleaved_modes(n_max)
    x_delta = thin_boundary(c, delta).x_delta
    got = _cell_values(cfg, 0, 0, (1.0, 4.0))
    ref = sweeps._density_lp(sweeps._normalized_draws(cfg, c, 0, 0, ns), ns,
                             c, *_refined_tile(x_delta))
    tol = (_EMPTY_EDGE_ERROR if x_delta <= _EMPTY_EDGE_ERROR[0]
           else next(t for t in _TILE_ERROR if delta <= t[0]))
    for p, bound in zip((1.0, 4.0), tol[1:]):
        # p = 4 underflows to 0 on both routes at ell 0.05, delta 0.025
        # (ROADMAP item 19)
        zero = ref[p] == 0.0
        assert np.array_equal(got[p] == 0.0, zero), p
        err = np.max(np.abs(got[p][~zero] / ref[p][~zero] - 1.0), initial=0.0)
        assert err < bound, (p, err)


def _p4_unanchored(Gt, ns, c, s_nodes, w_nodes, pref):
    """The p = 4 route with the s-exponent taken as 2(ks - |k|X), not
    2|k|(+-s - X): a mutant that the 40-digit reference must catch."""
    X, n_max = c.half_length, int(np.abs(ns).max())
    n = np.arange(-n_max, n_max + 1)
    g = np.zeros((Gt.shape[0], n.size), dtype=complex)
    g[:, ns + n_max] = Gt
    D = np.array([np.concatenate([np.convolve(a, a)[:2 * n_max],
                                  np.convolve(b, b)[2 * n_max:]])
                  for a, b in zip(g * np.exp(-(np.abs(n) + n) * X),
                                  g * np.exp(-(np.abs(n) - n) * X))])
    k = np.arange(-2 * n_max, 2 * n_max + 1)
    V = (2.0 * w_nodes * pref ** 3) @ np.exp(
        2.0 * (k * s_nodes[:, None] - np.abs(k) * X))
    return (2.0 * math.pi * (np.abs(D) ** 2 @ V)) ** 0.25


@pytest.mark.parametrize("ell, delta", [(1e-4, 0.79), (0.01, 0.3)])
def test_lp_p4_matches_40_digit_theta_grid_sum(ell, delta):
    # The sweep's Gauss-Legendre x theta-grid sum of dens^4 rho^2, in
    # 40-digit arithmetic from the same double inputs (draws, nodes,
    # weights, pref = 2 rho^-2 from density_weight, X), with rho^2 pref^4
    # taken as 2 pref^3 on both sides.  On the theta grid phi(s)^2 has the
    # coefficients c_k(s) = sum_{n+m=k} g_n g_m e^{(n+m)s - (|n|+|m|)X},
    # |k| <= 26 < n_theta / 2, so the grid sum of |phi(s)|^4 is
    # 2 pi sum_k |c_k(s)|^2;
    # that identity is checked term by term at the node nearest the edge.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    cfg = SweepConfig(ell_grid=(ell,), delta_grid=(delta,), n_max=13,
                      trials=3, seed=5)
    c = CollarParams(ell)
    ns = interleaved_modes(cfg.n_max)
    n_theta = 256
    x_delta = thin_boundary(c, delta).x_delta
    Gt = sweeps._normalized_draws(cfg, c, 0, 0, ns)
    s_nodes, w_nodes, _ = _tile(c, x_delta, cfg.n_max)
    pref = density_weight(c, s_nodes)
    got = _cell_values(cfg, 0, 0, (4.0,))[4.0]
    mutant = _p4_unanchored(Gt, ns, c, s_nodes, w_nodes, pref)
    with mpmath.workdps(40):
        X = mp.mpf(c.half_length)
        modes = [int(n) for n in ns]
        ks = range(-2 * cfg.n_max, 2 * cfg.n_max + 1)
        roots = [mp.expjpi(2 * mp.mpf(j) / n_theta) for j in range(n_theta)]
        S = [mp.mpf(s) for s in s_nodes]
        # 2 w pref^3 and |e^{ks - |k|X}|^2 at each node
        Q = [2 * mp.mpf(w) * mp.mpf(f) ** 3 for w, f in zip(w_nodes, pref)]
        E = [{k: mp.exp(2 * (k * s - abs(k) * X)) for k in ks} for s in S]
        for trial, g in enumerate(Gt):
            g = [mp.mpc(complex(b)) for b in g]
            # c_k(s) = e^{ks - |k|X} D_k
            D = dict.fromkeys(ks, 0)
            for n, gn in zip(modes, g):
                for m, gm in zip(modes, g):
                    D[n + m] += gn * gm * mp.exp(
                        -(abs(n) + abs(m) - abs(n + m)) * X)
            coef_sq = [2 * mp.pi * mp.fsum(abs(D[k]) ** 2 * e[k] for k in ks)
                       for e in E]
            a = [gn * mp.exp(n * S[-1] - abs(n) * X)
                 for n, gn in zip(modes, g)]
            grid = mp.fsum(
                abs(mp.fsum(an * roots[n * j % n_theta]
                            for n, an in zip(modes, a))) ** 4
                for j in range(n_theta)) * 2 * mp.pi / n_theta
            assert abs(grid / coef_sq[-1] - 1) < mp.mpf(10) ** -30
            ref = mp.fsum(q * v for q, v in zip(Q, coef_sq)) ** mp.mpf(0.25)
            assert abs(got[trial] / ref - 1) < 1e-14, (trial, got[trial])
            if ell == 1e-4:
                # the unanchored exponent is off by 5e-13 to 1.6e-12 here
                assert abs(mutant[trial] / ref - 1) > 1e-13, trial


@pytest.mark.parametrize("count", [1, 2, 3, 47, 49, 101])
def test_theta_sums_round_rows_as_the_chunked_tile(count):
    # BLAS gemv rounds the rows of a short remainder group differently;
    # any subset of rows must come out as in the (trial, 48, n_theta) tile
    rng = np.random.default_rng(count)
    tile = rng.random((3, 48, 256)) ** 4
    w = np.full(256, 2.0 * math.pi / 256)
    want = (tile @ w).ravel()
    rows = np.sort(rng.choice(tile.shape[0] * 48, count, replace=False))
    got = sweeps._row_dots(tile.reshape(-1, 256)[rows], w)
    assert got.tobytes() == want[rows].tobytes()


def test_lp_sweep_deterministic_across_workers():
    # the L^1 tile skips rows of the ell 1e-2 cells below their seed's term
    cfg = SweepConfig(ell_grid=(1e-4, 1e-2, 0.3), delta_grid=(0.1, 0.6),
                      n_max=13, trials=5, seed=4)
    ref = lp_vanishing_sweep(cfg, workers=1)
    assert sum(r.status == STATUS_OK for r in ref.rows) > 3 * 4 * cfg.trials
    for workers in (2, 8):
        assert lp_vanishing_sweep(cfg, workers=workers).to_json() \
            == ref.to_json(), workers


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lp_sweep_takes_underflowed_amplitudes_silently():
    # the p = 1 tile and the p = 4 Parseval sums meet amplitudes that
    # underflow at small ell; three cells are empty, every other row is ok
    rep = lp_vanishing_sweep(SweepConfig(ell_grid=(1e-4, 1e-2, 0.3, 1.0),
                                         delta_grid=(0.05, 0.3, 0.79),
                                         n_max=13, trials=4))
    ok = sum(r.status == STATUS_OK for r in rep.rows)
    assert (len(rep.rows), ok) == (160, 148)


def test_trial_values_do_not_depend_on_trial_count():
    # the thick-part normalization, the p = 2 closed form and the finite-p
    # tile's sums reduce one row per trial; each trial of each cell must
    # keep its bits as the trial count grows
    grid = dict(ell_grid=(1e-4, 0.01), delta_grid=(0.3,), n_max=32, seed=11)

    def values(trials):
        cells = {}
        for r in lp_vanishing_sweep(SweepConfig(trials=trials, **grid)).rows:
            if r.statistic.startswith("lp_ratio_"):
                cells.setdefault((r.ell, r.delta), []).append(r.value.hex())
        return cells

    ref = values(13)
    assert len(ref) == 2
    for trials in range(1, 13):
        got = values(trials)
        assert got.keys() == ref.keys()
        for cell, vals in got.items():
            assert vals == ref[cell][:4 * trials], (trials, cell)


def test_lp_pinf_reproduces_decay_exactly():
    cfg = SweepConfig(**SMALL)
    decay = decay_sweep(cfg)
    lp = lp_vanishing_sweep(cfg)
    got = [(r.ell, r.delta, r.value, r.status)
           for r in lp.values("lp_ratio_pinf")]
    want = [(r.ell, r.delta, r.value, r.status)
            for r in decay.values("linf_ratio")]
    assert got == want  # same draws, same sup nodes: bitwise equal


def test_lp_rows_satisfy_holder():
    cfg = SweepConfig(**SMALL)
    lp = lp_vanishing_sweep(cfg)
    by_p = {p: [r for r in lp.values(f"lp_ratio_{p}") if r.status == STATUS_OK]
            for p in ("p1", "p2", "p4", "pinf")}
    for r1, r2, r4, rinf in zip(*by_p.values()):
        area = thin_boundary(CollarParams(r1.ell), r1.delta).area
        # the sup row is a grid max (a slight under-estimate), hence slack
        assert r1.value <= area * rinf.value * 1.01
        assert r1.value <= math.sqrt(area) * r2.value * (1 + 1e-9)
        assert r2.value ** 2 <= r1.value * rinf.value * 1.01
        assert r4.value ** 4 <= (rinf.value ** 2) * (r2.value ** 2) * 1.01


# ROADMAP item 19's cell: p = 2's weights and p = 4's V underflow to 0
# there, where the p = 1 tile's value (1.4e-302) is representable
_UNDERFLOW_CELL = SweepConfig(ell_grid=(1e-4,), delta_grid=(0.0045,),
                              n_max=32, trials=2)


def test_lp_p1_tile_is_ok_where_p2_underflows():
    rows = lp_vanishing_sweep(_UNDERFLOW_CELL).values("lp_ratio_p1")
    assert len(rows) == 2
    assert all(r.status == STATUS_OK and r.value > 0.0 for r in rows)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19: the p = 2 column "
                   "reads 0, ok, where its weights underflow")
def test_lp_p2_rows_satisfy_cauchy_schwarz():
    rep = lp_vanishing_sweep(_UNDERFLOW_CELL)
    area = thin_boundary(CollarParams(1e-4), 0.0045).area
    for r1, r2 in zip(rep.values("lp_ratio_p1"), rep.values("lp_ratio_p2")):
        if r2.status == STATUS_OK:
            # ratio_p2^2 >= ratio_p1^2 / A, unsquared: the squares underflow
            assert r2.value * math.sqrt(area) >= r1.value * (1.0 - 1e-9)


def test_nan_trial_is_non_converged(monkeypatch):
    # one NaN draw in cell (0.4, 0.5), trial 2, poisons only that trial
    cfg = SweepConfig(**SMALL)
    clean = [decay_sweep(cfg), lp_vanishing_sweep(cfg)]
    real = sweeps.draw_coefficients

    def draws(seed, li, di, trials, count):
        g = real(seed, li, di, trials, count)
        if (li, di) == (0, 1):
            g[2, 0] = math.nan
        return g

    monkeypatch.setattr(sweeps, "draw_coefficients", draws)
    for want, rep in zip(clean, [decay_sweep(cfg), lp_vanishing_sweep(cfg)]):
        trial_stats = {r.statistic for r in want.rows
                       if not r.statistic.startswith("max_normalized")}
        for stat in trial_stats:
            rows, rows0 = rep.values(stat), want.values(stat)
            i = [j for j, r in enumerate(rows)
                 if (r.ell, r.delta) == (0.4, 0.5)][2]
            assert rows[i].status == STATUS_FAILED
            assert math.isnan(rows[i].value)
            assert rows[:i] + rows[i + 1:] == rows0[:i] + rows0[i + 1:]
            # the summary row is the best finite trial, not the NaN one
            suffix = "" if stat == "linf_ratio" else "_" + stat.split("_")[-1]
            best = rep.single("max_normalized" + suffix)
            ok = [r for r in rows if r.status == STATUS_OK]
            assert best.status == STATUS_OK
            assert math.isfinite(best.normalized)
            assert best.normalized == max(r.normalized for r in ok)


@pytest.mark.parametrize("sweep", [decay_sweep, lp_vanishing_sweep])
def test_normalized_column_past_the_envelope_overflow(sweep):
    # delta^2 e^{pi/delta} alone overflows below delta ~ 0.00435, while
    # its product with a trial's value (~1e-312 here) is ~10: each row
    # matches that product formed in 40 digits from the same double value;
    # a zero value stays NaN, as 0 * inf, and so does a summary over it
    mpmath = pytest.importorskip("mpmath")
    rep = sweep(SweepConfig(ell_grid=(1e-4,), delta_grid=(0.0043,),
                            n_max=4, trials=3))
    assert exp_scale(0.0043 ** 2, math.pi / 0.0043) == math.inf
    with mpmath.workdps(40):
        delta = mpmath.mpf(0.0043)
        env = delta ** 2 * mpmath.exp(mpmath.pi / delta)
        for row in rep.rows:
            if not row.value > 0.0:
                assert math.isnan(row.normalized)
                continue
            want = mpmath.mpf(row.value) * env
            assert row.status == STATUS_OK
            assert abs(row.normalized - want) <= 1e-12 * want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sweep", [decay_sweep, lp_vanishing_sweep])
def test_summary_rows_tell_failed_trials_from_empty_cells(sweep):
    # from ell 1e-8 down every thick weight underflows to 0, so every trial
    # is non-converged, without a floating-point warning, also where
    # (2 pi / ell)^2 overflows (ell 1e-160 and below); at (1.5, 0.3) the
    # thin part is empty
    def summaries(ells):
        rep = sweep(SweepConfig(ell_grid=ells, delta_grid=(0.3,), n_max=4,
                                trials=2, seed=3))
        rows = [r for r in rep.rows
                if r.statistic.startswith("max_normalized")]
        assert len(rows) in (1, 4)
        return {r.status for r in rows}, rows, rep.rows

    for ells, want in (((1e-16,), STATUS_FAILED), ((1e-12,), STATUS_FAILED),
                       ((1e-8,), STATUS_FAILED), ((1e-100,), STATUS_FAILED),
                       ((1e-160,), STATUS_FAILED), ((1e-200,), STATUS_FAILED),
                       ((1e-300,), STATUS_FAILED), ((1.5,), STATUS_EMPTY),
                       ((1e-8, 1.5), STATUS_FAILED)):
        statuses, rows, every = summaries(ells)
        assert statuses == {want}, ells
        if want == STATUS_EMPTY:
            assert all(r.value == 0.0 for r in rows)
        elif len(ells) == 1:
            assert all(math.isnan(r.value) and math.isnan(r.normalized)
                       and r.status == STATUS_FAILED for r in every)
        else:
            assert all(math.isnan(r.value) for r in rows)


def test_principal_mass_frozen_values():
    rep = principal_mass_sweep((0.001, 0.1), (0.2, 0.4))
    rows = {(r.ell, r.delta): r for r in rep.values("principal_thin_mass")}
    assert rows[(0.001, 0.4)].value == pytest.approx(
        M0_SCALED_THIN_0001_04, rel=1e-12)
    assert rows[(0.001, 0.4)].normalized == pytest.approx(
        M0_SCALED_THIN_0001_04 / PRINCIPAL_MASS_CONSTANT, rel=1e-12)
    assert rows[(0.1, 0.2)].value == pytest.approx(
        1e-3 * M0_THIN_01_02, rel=1e-12)
    fracs = {(r.ell, r.delta): r for r in rep.values("principal_mass_fraction")}
    assert fracs[(0.1, 0.2)].value == pytest.approx(
        M0_THIN_01_02 / M0_FULL_01, rel=1e-12)
    # pinching concentrates everything in the thin part
    assert fracs[(0.001, 0.4)].value > 0.999


def test_principal_mass_empty_cells():
    rep = principal_mass_sweep((0.9,), (0.3,))
    assert all(r.status == STATUS_EMPTY and r.value == 0.0 for r in rep.rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_principal_mass_past_its_overflow():
    # below ell ~ 4e-102 the thin mass 32 pi^3 t / ell^2 overflows; its
    # ell^3 scale, thin/full ratio and |b0| sqrt(thin) do not.  Rows that
    # that are finite keep the closed form's bits
    rep = principal_mass_sweep((1e-150, 1e-120, 1e-90), (0.3,))
    for r in rep.values("principal_thin_mass"):
        assert r.status == STATUS_OK
        assert r.value == pytest.approx(PRINCIPAL_MASS_CONSTANT, rel=2e-15)
    for r in rep.values("principal_mass_fraction"):
        assert r.status == STATUS_OK and 0.0 < r.value <= 1.0
    grid = (1e-150, 1e-120, 1e-90, 1e-4)
    rep = bij_normalization_check(grid, [e ** 2 for e in grid])
    rows = rep.values("b0_thin_norm")
    assert all(r.status == STATUS_OK for r in rows)
    # the norm over its normalized column at 1e-90 holds at 1e-150
    ratio = rows[2].value / rows[2].normalized
    for r in rows[:2]:
        assert r.value / r.normalized == pytest.approx(ratio, rel=1e-15)
    c = CollarParams(1e-90)
    xd = thin_boundary(c, 0.4).x_delta
    assert rows[2].value == 1e-180 * math.sqrt(
        mode_l2_norm_sq(c, 0, SubCollar(-xd, xd)))
    verdict = rep.single("b0_vanishing")
    assert verdict.status == STATUS_OK and verdict.normalized == 1.0


def _bij_grid(n=8):
    return tuple(float(x) for x in np.geomspace(1e-4, 0.1, n))


def test_bij_rows_and_ref_column():
    grid = _bij_grid()
    rep = bij_normalization_check(grid, [1.0] * len(grid))
    rows = rep.values("b0_thin_norm")
    assert len(rows) == len(grid)
    for r in rows:
        assert r.normalized == pytest.approx(
            r.ell ** -1.5 * math.sqrt(PRINCIPAL_MASS_CONSTANT), rel=1e-12)
    # at the pinched end the thin mass is within rounding of 32 pi^5
    assert rows[0].value == pytest.approx(rows[0].normalized, rel=1e-8)


@pytest.mark.parametrize("power,slope,passes", [
    (2.0, 0.5, True),    # b0 = ell^2: norm ~ ell^{1/2} -> vanishes
    (1.0, -0.5, False),  # b0 = ell: norm ~ ell^{-1/2} -> diverges
    (0.0, -1.5, False),  # constant b0: norm ~ ell^{-3/2}
])
def test_bij_vanishing_verdicts(power, slope, passes):
    grid = _bij_grid()
    rep = bij_normalization_check(grid, [e ** power for e in grid])
    verdict = rep.single("b0_vanishing")
    assert verdict.value == pytest.approx(slope, abs=0.05)
    assert verdict.normalized == (1.0 if passes else 0.0)


def test_bij_zero_sequence_passes():
    rep = bij_normalization_check(_bij_grid(4), [0.0] * 4)
    verdict = rep.single("b0_vanishing")
    assert math.isnan(verdict.value) and verdict.normalized == 1.0
    assert all(r.value == 0.0 for r in rep.values("b0_thin_norm"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bij_non_finite_norms_are_non_converged(bad):
    # the bad b0 sits at the large-ell end, outside the fitted half: the
    # verdict still reads it, as the scale of its vanishing threshold
    rep = bij_normalization_check(_bij_grid(4), [1.0, 1.0, 1.0, bad])
    assert [r.status for r in rep.values("b0_thin_norm")] \
        == [STATUS_OK] * 3 + [STATUS_FAILED]
    verdict = rep.single("b0_vanishing")
    assert verdict.status == STATUS_FAILED
    assert math.isnan(verdict.value) and math.isnan(verdict.normalized)


def test_bij_empty_thin_row():
    rep = bij_normalization_check((0.5, 0.81), [1.0, 1.0])
    rows = rep.values("b0_thin_norm")
    assert rows[1].status == STATUS_EMPTY and rows[1].value == 0.0


def test_bij_length_mismatch():
    with pytest.raises(ValidationError):
        bij_normalization_check(_bij_grid(4), [1.0, 2.0])


def test_bij_delta0_is_only_a_thin_threshold():
    # 0.8 fails the thick-gap constraint of the random-trial sweeps, but
    # bij-check has no thick part: only the thin range (0, DELTA_MAX) holds
    rep = bij_normalization_check((0.01, 0.1), [1e-4, 1e-2], delta0=0.8)
    rows = rep.values("b0_thin_norm")
    assert [r.delta for r in rows] == [0.8, 0.8]
    assert all(r.status == STATUS_OK for r in rows)
    with pytest.raises(DomainError, match="thin-part threshold"):
        bij_normalization_check((0.01, 0.1), [1.0, 1.0], delta0=0.9)


@pytest.mark.parametrize("ells,deltas,message", [
    ((), (0.3,), "nonempty"),
    ((0.5, 0.4), (0.3,), "strictly increasing"),
    ((0.5, 3.0), (0.3,), "core lengths"),
    ((math.nan,), (0.3,), "core lengths"),
    ((0.5,), (0.9,), "delta grid"),
    ((0.5,), (0.3, 0.3), "strictly increasing"),
])
def test_closed_form_sweeps_check_their_grids(ells, deltas, message):
    # the closed-form sweeps share SweepConfig's grid check and messages
    for build in (lambda: principal_mass_sweep(ells, deltas),
                  lambda: SweepConfig(ell_grid=ells, delta_grid=deltas)):
        with pytest.raises(ValidationError, match=message):
            build()
    if deltas == (0.3,):  # an ell-grid fault; bij-check has no delta grid
        with pytest.raises(ValidationError, match=message):
            bij_normalization_check(ells, [1.0] * len(ells))


def _law_scaled_weights(c, ns, windows):
    """The sweeps' weight rule written out on the kernel:
    _norm_const(c) * sum_w vals e^{2(n anchor - |n|X)}, summed from 0 in
    window order."""
    t = np.zeros(ns.size)
    for s1, s2 in windows:
        vals, anchors = exp_cos2_window(2.0 * ns, c.freq, s1, s2)
        t += vals * np.exp(2.0 * (ns * anchors - np.abs(ns) * c.half_length))
    with np.errstate(invalid="ignore"):
        return _norm_const(c) * t


@pytest.mark.parametrize("delta0", [0.1, 0.4, 0.69])
@pytest.mark.parametrize("ell", [1e-8, 1e-4, 1e-2, 0.5, 1.7])
def test_window_weights_keep_the_law_scaled_bits(ell, delta0):
    # every sweep byte rests on these weights: the thick windows normalize
    # the draws and the thin window gives the p = 2 column
    c = CollarParams(ell)
    ns = interleaved_modes(64)
    xd = thin_boundary(c, delta0).x_delta
    for windows in (_thick_windows(c, delta0), [(-xd, xd)]):
        got = sweeps._window_weights(c, ns, windows)
        assert got.tobytes() == _law_scaled_weights(c, ns, windows).tobytes()
